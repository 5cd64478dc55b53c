(** Shared machinery for random-linear-combination batch verification:
    the batching toggle, deterministic batch coefficients, and chunked
    dispatch.  Used by {!Dleq.verify_batch}; see DESIGN.md §3.10.

    The toggle follows the §3.5 discipline: Atomic-backed, flipped only
    while single-domain, and trace-preserving — batch verification
    returns verdicts identical to the one-by-one path (up to the
    standard ~2^-32 RLC false-accept bound, which no committed scenario
    can hit), so only wall-clock changes. *)

val set_batch_verify : bool -> unit
(** Toggle random-linear-combination batching (on by default). *)

val batch_verify_enabled : unit -> bool

val set_max_chunk : int -> unit
(** Batch chunk size (clamped to [>= 2]; default 64): verification
    batches larger than this are split into chunks of at most this
    size — the unit of the combined RLC equation.  The `bench perf`
    batch-size sweep varies this knob. *)

val max_chunk : unit -> int

val coeff : salt:int -> int array -> int
(** [coeff ~salt vs] derives a deterministic batch coefficient in
    [\[1, 2^32)] by avalanche-mixing the given ints — no RNG state is
    consumed, so equal items always draw equal weights and batching
    can never perturb trace determinism.  Distinct [salt]s yield
    independent weight streams (DLEQ batching needs two per item). *)

val dispatch : ('a array -> 'b array) -> 'a array -> 'b array
(** [dispatch f arr] splits [arr] into chunks of at most
    {!max_chunk} elements, maps [f] over the chunks and concatenates the
    results in input order. *)
