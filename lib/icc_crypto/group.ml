(* The cyclic group used by every signature scheme in this library: the
   subgroup of quadratic residues of Z_p^* for a safe prime p = 2q + 1.
   The subgroup has prime order q, so every non-identity element (such as
   g = 4 = 2^2) generates it.

   Parameters are fixed, simulation-scale (61-bit) values; see DESIGN.md
   §1.3 for why production-scale curves are substituted. *)

let p = 2305843009213691579
let q = (p - 1) / 2
let g = 4

let () =
  (* Cheap self-checks at module initialisation. *)
  Fp.check_modulus p;
  assert (p = (2 * q) + 1);
  assert (Fp.pow g q p = 1)

type elt = int (* canonical representative in [1, p), member of QR(p) *)
type scalar = int (* canonical representative in [0, q) *)

let one = 1
let generator = g

let elt_equal = Int.equal
let scalar_equal = Int.equal

let is_element x = x > 0 && x < p && Fp.pow x q p = 1

let mul a b = Fp.mul a b p
let elt_inv a = Fp.inv a p

let pow base e =
  Counters.bump Counters.pow_generic;
  Fp.pow base (Fp.reduce e q) p

(* --- fixed-base windowed exponentiation -------------------------------- *)

(* For bases that recur across many exponentiations — the generator, party
   public keys, VUF verification keys — precompute a radix-16 table
   rows.(i).(j) = base^(j * 16^i) for the 16 four-bit windows of a 61-bit
   exponent.  An exponentiation then costs at most 15 group mults (one per
   non-zero window) instead of ~91 for square-and-multiply.  Building a
   table costs ~300 mults, amortised after four exponentiations.

   Tables live in one process-wide cache keyed by base element (the
   runtime is single-domain, DESIGN.md §3.9); a table is a pure function
   of its base, so the cache holds no state a run could observe.
   All cache access is by exact key (never iteration), so cache state
   can never perturb protocol determinism; a size cap bounds memory
   against adversarial inputs (full cache => compute generic, don't
   cache). *)
module Fixed_base = struct
  let windows = 16 (* ceil(61 / 4) *)
  let radix = 16

  type table = elt array array

  let make (base : elt) : table =
    Counters.bump Counters.fixed_base_tables;
    let rows = Array.make_matrix windows radix one in
    let b = ref base in
    for i = 0 to windows - 1 do
      let row = rows.(i) in
      for j = 1 to radix - 1 do
        row.(j) <- mul row.(j - 1) !b
      done;
      (* advance to base^(16^(i+1)) via four squarings *)
      for _ = 1 to 4 do
        b := mul !b !b
      done
    done;
    rows

  let pow (rows : table) (e : int) : elt =
    let e = Fp.reduce e q in
    let acc = ref one in
    let e = ref e in
    let i = ref 0 in
    while !e <> 0 do
      let d = !e land (radix - 1) in
      if d <> 0 then acc := mul !acc rows.(!i).(d);
      e := !e lsr 4;
      incr i
    done;
    !acc

  (* Cache policy: below [cache_cap] every new base gets a table
     immediately (the historical behaviour).  At cap, a new base first
     sits in a bounded probation book: only after [probation_hits]
     misses does it evict the oldest evictable resident (FIFO) and get
     a table of its own.  This fixes the saturation starvation bug
     where a full cache silently sent every later base — e.g. post-DKG
     re-keys — to generic pow forever.  The generator's table is built
     on the first lookup, not at module load, and again after a clear,
     so its [fixed_base_tables] bump lands in the counters of the run
     that uses it.  It never enters the eviction ring, so [base_pow]
     can't lose its table to adversarial base churn. *)
  type cache = {
    tbl : (elt, table) Hashtbl.t;
    ring : elt Queue.t; (* insertion-ordered evictable residents *)
    probation : (elt, int) Hashtbl.t; (* miss counts at cap *)
  }

  let cache_cap = 4096
  let probation_cap = 1024
  let probation_hits = 3

  let cache : cache option ref = ref None

  let current () =
    match !cache with
    | Some c -> c
    | None ->
        let tbl = Hashtbl.create 64 in
        (* Pin the generator: never enqueued on [ring]. *)
        Hashtbl.replace tbl g (make g);
        let c = { tbl; ring = Queue.create (); probation = Hashtbl.create 64 } in
        cache := Some c;
        c

  let evict_one c =
    (* FIFO over evictable residents; entries are unique (a base is
       enqueued only when installed, and removed only here), so the
       membership check is purely defensive. *)
    let rec go () =
      match Queue.take_opt c.ring with
      | None -> false
      | Some b ->
          if Hashtbl.mem c.tbl b then begin
            Hashtbl.remove c.tbl b;
            Counters.bump Counters.fixed_base_evictions;
            true
          end
          else go ()
    in
    go ()

  let install c base =
    let t = make base in
    Hashtbl.replace c.tbl base t;
    Queue.push base c.ring;
    Some t

  let find (base : elt) : table option =
    let c = current () in
    match Hashtbl.find_opt c.tbl base with
    | Some t -> Some t
    | None ->
        if Hashtbl.length c.tbl < cache_cap then install c base
        else begin
          let hits =
            1
            + (match Hashtbl.find_opt c.probation base with
              | Some n -> n
              | None -> 0)
          in
          if hits >= probation_hits then begin
            Hashtbl.remove c.probation base;
            if evict_one c then install c base else None
          end
          else begin
            (* Bounded book: reset wholesale when full rather than
               tracking recency — a cold restart only delays promotion
               by at most [probation_hits] extra misses. *)
            if Hashtbl.length c.probation >= probation_cap then
              Hashtbl.reset c.probation;
            Hashtbl.replace c.probation base hits;
            None
          end
        end
end

(* §3.5 toggle. *)
let fixed_base = ref true
let set_fixed_base on = fixed_base := on
let fixed_base_enabled () = !fixed_base
let clear_fixed_base_cache () = Fixed_base.cache := None

let pow_cached base e =
  if !fixed_base then
    match Fixed_base.find base with
    | Some table ->
        Counters.bump Counters.pow_fixed_base;
        Fixed_base.pow table e
    | None -> pow base e
  else pow base e

let base_pow e = pow_cached g e

(* Scalar field Z_q helpers. *)
let scalar_add a b = Fp.add a b q
let scalar_mul a b = Fp.mul a b q
let scalar_reduce a = Fp.reduce a q

let scalar_of_hash (d : Sha256.t) = Fp.reduce (Sha256.to_int61 d) q

(* Challenge and nonce hash inputs: one domain byte, each int as 8
   big-endian bytes, then [suffix].  The fixed-width fields precede the
   one variable-length field, so each domain's encoding is injective, and
   the domain bytes lie below every ASCII-tagged hash input of the tree
   (block, beacon, VUF output, Merkle), so no two uses share an input.
   A Schnorr challenge on a 36-byte signed text is 53 bytes and a DLEQ
   challenge 49: each fits one SHA-256 block (at most 55 bytes). *)
type hash_domain = Schnorr_challenge | Schnorr_nonce | Dleq_challenge | Dleq_nonce

let domain_byte = function
  | Schnorr_challenge -> '\x01'
  | Schnorr_nonce -> '\x02'
  | Dleq_challenge -> '\x03'
  | Dleq_nonce -> '\x04'

let hash_fields domain ints suffix =
  let fixed = 1 + (8 * List.length ints) in
  let b = Bytes.create (fixed + String.length suffix) in
  Bytes.set b 0 (domain_byte domain);
  List.iteri (fun i v -> Bytes.set_int64_be b (1 + (8 * i)) (Int64.of_int v)) ints;
  Bytes.blit_string suffix 0 b fixed (String.length suffix);
  Sha256.digest_bytes b

(* Hash a message into the group: square the hash-derived residue.  Squaring
   maps Z_p^* onto the QR subgroup, giving a proper hash-to-group for the
   threshold-VUF beacon (the CKS-style coin needs H2G with unknown dlog). *)

let residue_to_group (x : int) : elt =
  (* x = p - 1 would square to the identity; remap it to 3, whose class
     {3, p - 3} is disjoint from every other nudge target — the old
     remap to 2 collapsed it onto the {2, p - 2} preimage class of
     x = 2, silently merging two hash preimages.  The branch is
     defensive: [hash_to_group] below only produces x in [2, p - 2]. *)
  let x = if x = p - 1 then 3 else x in
  Fp.mul x x p

let hash_to_group (d : Sha256.t) : elt =
  (* x in [2, p - 2]: never 0, never 1, and never the degenerate p - 1. *)
  residue_to_group (2 + (Sha256.to_int61 d mod (p - 3)))

let random_scalar rand_bits : scalar =
  (* rand_bits yields uniformly random 61-bit non-negative ints. *)
  let rec draw () =
    let v = rand_bits () in
    if v >= 0 && v < q then v else draw ()
  in
  draw ()

let random_scalar_nonzero rand_bits : scalar =
  (* Rejection resampling keeps the distribution uniform on [1, q);
     the historical 0 -> 1 remap gave scalar 1 double mass. *)
  let rec draw () =
    let v = random_scalar rand_bits in
    if v = 0 then begin
      Counters.bump Counters.zero_rederives;
      draw ()
    end
    else v
  in
  draw ()

let scalar_of_hash_nonzero ~tag (d : Sha256.t) : scalar =
  (* First derivation is byte-identical to [scalar_of_hash] — the
     rederive chain only engages on the ~2^-61 zero draw (the
     historical code remapped that draw to 1, doubling its mass), so
     committed scenarios never see it: [Counters.zero_rederives] stays
     0 on every golden run, asserted in the tests. *)
  let s = scalar_of_hash d in
  if s <> 0 then s
  else
    let rec rederive i =
      Counters.bump Counters.zero_rederives;
      let d' =
        Sha256.digest_string
          (Printf.sprintf "%s|rederive|%d|%s" tag i (Sha256.to_hex d))
      in
      let s = scalar_of_hash d' in
      if s <> 0 then s else rederive (i + 1)
    in
    rederive 0
