(** Crypto-operation counters, registered in the process-global
    {!Icc_obs.Registry} under their historical names (the
    ["ops_before"]/["ops_after"] keys of BENCH_perf.json).

    Bumped on the crypto hot paths (hashing, signing/verification,
    exponentiation); write-only inside the library, so they cannot
    influence protocol behaviour.  The bench driver resets and snapshots
    them around measured runs; `icc run` prints a summary line from
    {!snapshot}; the runner mirrors them onto the trace bus as
    [prof-counter] events when profiling is enabled. *)

val sha256_digests : Icc_obs.Registry.counter
val schnorr_signs : Icc_obs.Registry.counter
val schnorr_verifies : Icc_obs.Registry.counter
val dleq_proves : Icc_obs.Registry.counter
val dleq_verifies : Icc_obs.Registry.counter

val pow_generic : Icc_obs.Registry.counter
(** Group exponentiations via generic square-and-multiply. *)

val pow_fixed_base : Icc_obs.Registry.counter
(** Group exponentiations served by a precomputed fixed-base table. *)

val fixed_base_tables : Icc_obs.Registry.counter
(** Fixed-base tables built (one-time cost per cached base). *)

val fixed_base_evictions : Icc_obs.Registry.counter
(** Resident fixed-base tables evicted to admit a probation-proven hot
    base once the cache is at capacity. *)

val zero_rederives : Icc_obs.Registry.counter
(** Zero scalars hit during key/nonce derivation and re-derived (hash
    counter / rejection resample).  Asserted 0 on the golden runs. *)

val bump : Icc_obs.Registry.counter -> unit
(** Alias for {!Icc_obs.Registry.inc} — one mutable store. *)

val reset : unit -> unit
(** Zero the crypto counters only (the rest of the registry is left
    alone). *)

val snapshot : unit -> (string * int) list
(** Stable, ordered list of counter names and current values. *)
