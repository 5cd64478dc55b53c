(** Process-global metrics registry: named monotonic counters, gauges and
    log-bucketed histograms, with stable snapshots and a Prometheus-style
    text exposition.

    The registry sits below every other library (its only dependency is
    [unix], pulled in by {!Profile}), so the crypto, simulator and protocol
    layers can all register metrics without dependency cycles.  Metrics are
    write-only from inside [lib/]: nothing in the protocol reads them back,
    so they cannot influence scheduling or trace bytes (the same contract
    the old [Icc_crypto.Counters] had, now enforced in one place).

    Registration is idempotent: asking for an existing name of the same
    metric kind returns the already-registered metric, so modules can
    declare their metrics at load time without coordination.  Registering
    an existing name as a *different* kind raises [Invalid_argument].

    Every metric is plain mutable state with no synchronisation: the
    runtime is single-domain (DESIGN.md §3.9). *)

type counter
type gauge
type histogram

(** {1 Counters} *)

val counter : string -> counter
(** Register (or fetch) the monotonic counter [name]. *)

val inc : counter -> unit
(** O(1) increment — one field write, safe on hot paths. *)

val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

val histogram : ?lo:float -> ?ratio:float -> ?buckets:int -> string -> histogram
(** Register a log-bucketed histogram: bucket [i] covers
    [(lo * ratio^(i-1), lo * ratio^i]], with a first bucket [(-inf, lo]]
    and an implicit overflow bucket above the last bound.  Defaults:
    [lo = 1e-6], [ratio = 2.], [buckets = 36] — 1 µs to ~68 s when
    observing seconds.  The geometry arguments matter only on first
    registration (idempotent fetches ignore them). *)

val observe : histogram -> float -> unit

val bucket_bounds : histogram -> float array
(** The upper bounds, ascending; length = [buckets]. *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** [nan] when empty *)
  hs_max : float;  (** [nan] when empty *)
  hs_p50 : float;  (** [nan] when empty *)
  hs_p95 : float;
  hs_p99 : float;
  hs_buckets : (float * int) list;
      (** (upper bound, count) per non-empty bucket, ascending; the
          overflow bucket reports [infinity] as its bound. *)
}

val hist_stats : histogram -> hist_snapshot
(** Percentiles are nearest-rank over the bucket histogram: the reported
    quantile is the upper bound of the bucket holding that rank, clamped
    to the exact observed maximum. *)

(** {1 Registry-wide operations} *)

val counters : unit -> (string * int) list
(** All registered counters with current values, sorted by name. *)

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

val snapshot : unit -> (string * value) list
(** Every registered metric, sorted by name. *)

val reset : unit -> unit
(** Zero every counter and gauge and clear every histogram (metrics stay
    registered).  Benchmark drivers call this between measured runs. *)

val to_prometheus : unit -> string
(** Prometheus text exposition (metric names sanitised to
    [\[a-zA-Z0-9_\]]): counters and gauges as single samples, histograms
    as cumulative [_bucket{le="..."}] series plus [_sum] and [_count] —
    ready for a real-process backend to serve over HTTP. *)
