(** Prime-order group for all signature schemes: the quadratic-residue
    subgroup of [Z_p^*] for the fixed 61-bit safe prime [p], with
    generator [g = 4] and order [q = (p-1)/2]. *)

type elt = int
(** Canonical representative in [\[1, p)], member of the QR subgroup. *)

type scalar = int
(** Canonical representative in [\[0, q)]. *)

val p : int
val q : int

val one : elt
val generator : elt

val elt_equal : elt -> elt -> bool
val scalar_equal : scalar -> scalar -> bool
val is_element : int -> bool

val mul : elt -> elt -> elt
val elt_inv : elt -> elt

val pow : elt -> int -> elt
(** Generic square-and-multiply exponentiation (exponent reduced mod [q]). *)

val pow_cached : elt -> int -> elt
(** Like {!pow}, but serves the exponentiation from a precomputed
    fixed-base window table when the optimisation is enabled (the
    default), building and caching the table on first use.  Intended for
    long-lived bases — the generator, public keys, verification keys;
    never call it with per-message points.  Results are always identical
    to {!pow}. *)

val base_pow : int -> elt
(** [base_pow e = pow_cached generator e]. *)

val set_fixed_base : bool -> unit
(** Toggle fixed-base tables (on by default).  Only affects speed, never
    results; exposed so the benchmark harness can measure before/after. *)

val fixed_base_enabled : unit -> bool

val clear_fixed_base_cache : unit -> unit
(** Drop every cached table, the generator's included; the next lookups
    rebuild them.  Results never change.  What changes is the
    [fixed_base_tables] counter: after a clear, a run counts the tables
    it needs itself rather than only those no earlier run in the process
    left behind. *)

val scalar_add : scalar -> scalar -> scalar
val scalar_sub : scalar -> scalar -> scalar
val scalar_mul : scalar -> scalar -> scalar
val scalar_inv : scalar -> scalar
val scalar_reduce : int -> scalar

val scalar_of_hash : Sha256.t -> scalar

type hash_domain = Schnorr_challenge | Schnorr_nonce | Dleq_challenge | Dleq_nonce
(** The uses of {!hash_fields}; each has its own leading byte. *)

val hash_fields : hash_domain -> int list -> string -> Sha256.t
(** [hash_fields domain ints suffix] hashes the domain's byte, each int
    as 8 big-endian bytes, then [suffix].  Injective per domain, since
    only the last field varies in length; 55 bytes or fewer hash as one
    SHA-256 block. *)

val scalar_of_hash_nonzero : tag:string -> Sha256.t -> scalar
(** Like {!scalar_of_hash}, but guarantees a non-zero result without
    biasing the distribution: the first derivation is byte-identical to
    [scalar_of_hash d], and the (probability ~2^-61) zero draw is
    re-derived through a [tag]-keyed hash counter chain instead of the
    historical 0 -> 1 remap (which gave scalar 1 double mass).  Each
    re-derivation bumps {!Counters.zero_rederives}. *)

val hash_to_group : Sha256.t -> elt

val residue_to_group : int -> elt
(** The squaring map underlying {!hash_to_group}, exposed for direct
    unit tests of its nudge classes: [x] in [\[2, p - 1\]] is squared
    into the QR subgroup, with the degenerate [x = p - 1] (whose square
    is the identity) remapped to the class of 3 — distinct from the
    class of 2, unlike the historical remap. *)

val random_scalar : (unit -> int) -> scalar
(** [random_scalar rand_bits] draws a uniform scalar given a source of
    uniform 61-bit non-negative ints. *)

val random_scalar_nonzero : (unit -> int) -> scalar
(** {!random_scalar} with zero rejected and redrawn (uniform on
    [\[1, q)]); each rejection bumps {!Counters.zero_rederives}. *)

val elt_to_string : elt -> string
val pp_elt : Format.formatter -> elt -> unit
