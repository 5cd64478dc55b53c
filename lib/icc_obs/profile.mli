(** Span-based self-profiler: nestable named spans with wall-clock timing,
    per-phase total/self aggregation, per-party and per-round attribution,
    and folded-stack (flamegraph-compatible) output.

    The profiler is a speed toggle in the §3.5 style — OFF by default and
    forbidden from changing behaviour.  When disabled, {!span} is one
    load and a branch before calling the thunk: no clock is read,
    nothing is recorded, and traced runs stay byte-identical to
    unprofiled ones.

    When enabled, a span costs two [Unix.gettimeofday] reads plus O(1)
    hashtable updates at exit.  Either way the profiler writes no trace
    events itself and feeds nothing back into the simulation, so enabling
    it never perturbs scheduling (the runner asserts this in CI by
    stripping [prof-*] lines and comparing traces byte-for-byte).

    Span names are dot-separated [layer.operation] labels
    ([crypto.schnorr_verify], [pool.admit], [engine.dispatch], ...); the
    nesting stack is joined with [";"] into folded-stack paths
    ([engine.dispatch;party.step;pool.admit;crypto.schnorr_verify]) that
    flamegraph tooling consumes directly.

    Attribution context: the protocol layer calls {!set_party}/{!set_round}
    as it switches between parties and rounds; a span's self-time is
    charged to the context current when it *exits*.  The context is
    best-effort (an engine-level span spanning a context switch lands on
    the newer context) — right for heatmaps, not for accounting audits. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded data and the current span stack (the enabled flag is
    left as-is). *)

val now : unit -> float
(** The profiler's wall clock, in seconds.  Exposed so front ends measure
    wall time with the same clock the spans use. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a span.  Exceptions propagate and
    still close the span. *)

val set_party : int -> unit
val set_round : int -> unit

type stat = {
  sp_name : string;
  sp_count : int;
  sp_total_s : float;
      (** Wall-clock including children.  Recursive re-entry of the same
          span name is counted at every level, so totals across names can
          exceed wall time; self-times never double-count. *)
  sp_self_s : float;  (** Wall-clock excluding child spans. *)
}

val stats : unit -> stat list
(** Per-span-name aggregation, sorted by name. *)

val folded : unit -> (string * int * float) list
(** [(path, count, self seconds)] per distinct stack path, sorted by
    path — the flamegraph view. *)

val folded_lines : unit -> string
(** The folded list in Brendan Gregg's folded-stack format, one
    ["path self-microseconds"] line per path — feed to
    [flamegraph.pl] / [inferno-flamegraph]. *)

val by_round : unit -> (int * (string * float) list) list
(** Self-seconds per (round, span name), rounds ascending, names sorted
    within each round.  Round 0 collects work outside any round context
    (setup, keygen). *)

val by_party : unit -> (int * (string * float) list) list
(** Same, keyed by the party context; party 0 is outside-any-party work. *)

(** {1 Rendering}

    One renderer for every view of a profile: [icc profile] feeds it the
    live profiler, [icc analyze] the stats it rebuilds from a trace's
    [prof-span]/[prof-counter] events. *)

val us : float -> int
(** Seconds to whole microseconds, rounded to nearest: the one conversion
    behind every exported microsecond figure (folded stacks, [prof-span]
    events, JSON, tables). *)

type report = {
  spans : stat list;
  counters : (string * int) list;
  rounds : (int * (string * float) list) list;  (** As {!by_round}. *)
  parties : (int * (string * float) list) list;  (** As {!by_party}. *)
}

val report : unit -> report
(** The live profiler's {!stats}, {!by_round} and {!by_party}, with the
    registry counters. *)

val render : top:int -> report -> string
(** The phase table, spans by self-time descending (ties by name): at
    most [top] rows, the rest summed into one [(other xK)] row, or every
    row when [top <= 0].  Then the non-zero counters and, when present,
    the per-round self-time bars (each labelled with the round's top
    span) and the per-party self-times. *)

val to_json : report -> (string * Json.t) list
(** The same report as JSON members: [spans] (self-time descending),
    non-zero [counters], [by_round] and [by_party]. *)
