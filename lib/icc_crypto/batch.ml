(* Shared machinery for random-linear-combination batch verification
   (contract in batch.mli): the §3.5-style toggle, the deterministic
   32-bit batch coefficients, and the chunked dispatcher.

   Domain safety (DESIGN.md §3.9): the toggle and the chunk knob are
   [Atomic.t]s, flipped only while single-domain (snapshot-at-spawn);
   [dispatch] itself holds no state. *)

let batching = Atomic.make true
let set_batch_verify on = Atomic.set batching on
let batch_verify_enabled () = Atomic.get batching

(* Default 64: past that size the Pippenger bucket sweep stops gaining
   per signature (see the `batch_sweep` rows of BENCH_perf.json) and
   chunking bounds the worst-case fallback cost. *)
let max_chunk_v = Atomic.make 64

let set_max_chunk n = Atomic.set max_chunk_v (max 2 n)
let max_chunk () = Atomic.get max_chunk_v

(* splitmix64-style avalanche mixing, truncated to OCaml's 63-bit
   native ints (the multiplies wrap mod 2^63, which is fine for
   mixing).  Deterministic in the item data — re-running a batch draws
   identical coefficients, so batch verdicts are reproducible and no
   RNG state is consumed (traces can't shift). *)
let mix h v =
  let h = h lxor ((v * 0x9E3779B97F4A7C1) land max_int) in
  let h = (h lxor (h lsr 29)) * 0x1F85EBCA6BB4393 in
  let h = (h lxor (h lsr 32)) * 0x1D049BB133111EB in
  (h lxor (h lsr 31)) land max_int

let coeff ~salt vs =
  let h = Array.fold_left mix (mix 0x1CC0BA7C4 salt) vs in
  (* Non-zero 32-bit weight: a zero coefficient would erase its item
     from the combined equation, letting a forgery through. *)
  let z = h land 0xFFFFFFFF in
  if z = 0 then 1 else z

let dispatch (f : 'a array -> 'b array) (arr : 'a array) : 'b array =
  let n = Array.length arr in
  let cz = max_chunk () in
  if n <= cz then f arr
  else begin
    let nchunks = (n + cz - 1) / cz in
    let chunks =
      Array.init nchunks (fun k ->
          Array.sub arr (k * cz) (min cz (n - (k * cz))))
    in
    Array.concat (Array.to_list (Array.map f chunks))
  end
[@@icc.domain_entry]
