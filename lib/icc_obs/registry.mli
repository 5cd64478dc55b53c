(** Process-global registry of named monotonic counters, with a sorted
    listing and a Prometheus-style text exposition.

    The registry sits below every other library (its only dependency is
    [unix], pulled in by {!Profile}), so the crypto, simulator and protocol
    layers can all register counters without dependency cycles.  Counters
    are write-only from inside [lib/]: nothing in the protocol reads them
    back, so they cannot influence scheduling or trace bytes.

    Registration is idempotent: asking for an existing name returns the
    already-registered counter, so modules can declare their counters at
    load time without coordination.

    Every counter is plain mutable state with no synchronisation: the
    runtime is single-domain (DESIGN.md §3.9). *)

type counter

val counter : string -> counter
(** Register (or fetch) the monotonic counter [name]. *)

val inc : counter -> unit
(** O(1) increment — one field write, safe on hot paths. *)

val add : counter -> int -> unit
val value : counter -> int

val counters : unit -> (string * int) list
(** All registered counters with current values, sorted by name. *)

val reset : unit -> unit
(** Zero every counter (counters stay registered).  Benchmark drivers and
    the CLI call this before a measured run. *)

val to_prometheus : unit -> string
(** Prometheus text exposition, one [# TYPE <name> counter] line and one
    sample per counter, sorted by name (names sanitised to
    [\[a-zA-Z0-9_\]]) — ready for a real-process backend to serve over
    HTTP. *)
