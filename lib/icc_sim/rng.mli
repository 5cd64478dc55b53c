(** Deterministic SplitMix64 pseudo-random stream.  All randomness in the
    repository flows from seeded instances, making every experiment
    reproducible. *)

type t

val create : int -> t

val bits61 : t -> int
(** Uniform in [\[0, 2^61)]; the source shape expected by
    [Icc_crypto] key generation. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)], rejection-sampled. *)

val float : t -> float -> float
val float_range : t -> float -> float -> float
val bool : t -> bool
val shuffle_in_place : t -> 'a array -> unit

val split : t -> t
(** An independent child stream. *)

val of_string_seed : string -> t
(** Seed from the first 8 bytes of a string (e.g. a hash digest). *)

val pick : t -> 'a list -> 'a
