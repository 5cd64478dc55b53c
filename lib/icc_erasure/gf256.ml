(* GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b),
   via log/antilog tables over the generator 3. *)

let order = 256

let exp_table = Array.make 512 0
let log_table = Array.make 256 0

let () =
  (* Build tables by repeated multiplication by the generator 0x03:
     x*3 = x*2 xor x, where x*2 is a shift with conditional reduction. *)
  let x = ref 1 in
  for i = 0 to 254 do
    exp_table.(i) <- !x;
    log_table.(!x) <- i;
    let x2 = !x lsl 1 in
    let x2 = if x2 land 0x100 <> 0 then x2 lxor 0x11b else x2 in
    x := x2 lxor !x
  done;
  (* duplicate for index arithmetic without mod *)
  for i = 255 to 511 do
    exp_table.(i) <- exp_table.(i - 255)
  done

let check v =
  if v < 0 || v > 255 then invalid_arg "Gf256: value out of range"

let add a b = a lxor b
let sub = add

let mul a b =
  if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

(* Row c of the multiplication table: byte x holds c*x.  All 256 rows are
   built together on first use (64 KiB), so a row costs nothing per call. *)
let rows =
  lazy
    (Array.init 256 (fun c ->
         let row = Bytes.make 256 '\000' in
         if c <> 0 then
           for x = 1 to 255 do
             Bytes.set row x (Char.chr exp_table.(log_table.(c) + log_table.(x)))
           done;
         Bytes.unsafe_to_string row))

let mul_row c =
  check c;
  (Lazy.force rows).(c)

let inv a =
  if a = 0 then invalid_arg "Gf256.inv: zero" else exp_table.(255 - log_table.(a))

let div a b = if a = 0 then 0 else mul a (inv b)

let pow a e =
  if e < 0 then invalid_arg "Gf256.pow: negative exponent"
  else if a = 0 then if e = 0 then 1 else 0
  else exp_table.(log_table.(a) * e mod 255)
