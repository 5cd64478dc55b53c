(** Per-party traffic and protocol metrics of one simulation run: the one
    fold over [(time, event)].  {!attach} runs it online as a [core]-level
    sink of the {!Trace} bus; {!Replay.fold} runs it offline over a parsed
    trace.  Traffic is accounted at the modeled wire sizes carried by
    [Net_send] events; the per-round table is Hashtbl-backed (O(1) per
    event). *)

type t

val create : int -> t
(** [create n] for [n] parties (1-based ids). *)

val observe : t -> time:float -> Trace.event -> unit
(** Fold one event: [Net_send] drives the traffic and link tallies, the
    five milestone events the per-round table (first event per round
    wins), [Block_decided] finalization counts and propose→decide
    latencies, and the gossip/RBC events their dissemination counts. *)

val attach : t -> Trace.t -> unit
(** Subscribe {!observe} as a [core] sink.  [Detail] events never reach
    it, so online the [finalize] column and the dissemination counts stay
    empty; they fill when a whole trace is folded offline. *)

val n : t -> int

(** {1 Traffic} *)

val total_msgs : t -> int
val total_bytes : t -> int
val max_bytes_per_party : t -> int
val msgs_of_kind : t -> string -> int
val bytes_of_kind : t -> string -> int

val kinds : t -> (string * int * int) list
(** [(kind, msgs, bytes)] per message kind, sorted by kind. *)

val link_msgs : t -> int array array
(** Transmissions [src][dst] over 0..n (a copy).  A broadcast ([Net_send]
    with [dst = 0]) counts as [copies] transmissions: one to each of the
    [copies] lowest-numbered parties other than [src] (the network always
    emits [copies = n - 1], i.e. one per other party).  Row sums are the
    per-party totals behind {!total_msgs} and {!max_bytes_per_party}. *)

val link_bytes : t -> int array array
(** Bytes [src][dst], by the same convention as {!link_msgs}. *)

(** {1 Per-round timeline} *)

type round_row = private {
  r_round : int;
  mutable r_entry : float option;  (** First [Round_entry]. *)
  mutable r_propose : float option;  (** First [Propose]. *)
  mutable r_notarize : float option;  (** First [Notarize]. *)
  mutable r_finalize : float option;  (** First [Finalize] (a [Detail] event). *)
  mutable r_decided : float option;  (** First [Block_decided]. *)
}
(** A live row: the fold fills its columns as events arrive. *)

val rounds : t -> round_row list
(** One row per round that saw any milestone, ascending by round. *)

val finalized_blocks : t -> int

val finalizations : t -> (int * float) list
(** Every [Block_decided] [(round, time)] in recording order. *)

val latencies : t -> float list
(** Propose → all-honest-commit latencies in recording order. *)

(** {1 Dissemination} *)

type dissemination = private {
  mutable gossip_publish : int;
  mutable gossip_request : int;
  mutable gossip_acquire : int;
  mutable rbc_fragments : int;
  mutable rbc_echoes : int;
  mutable rbc_reconstructs : int;
  mutable rbc_inconsistent : int;
}

val dissemination : t -> dissemination
(** Counts of the gossip and RBC events (all [Detail]). *)

(** {1 Statistics} *)

val mean : float list -> float

val percentile : float -> float list -> float
(** Nearest-rank percentile; [nan] values are dropped, empty input yields
    [nan]. *)

val sorted_samples : float list -> float array
(** Drop [nan]s and sort ascending — the one-time half of {!percentile},
    for callers querying several ranks of the same samples. *)

val percentile_of_sorted : float -> float array -> float
(** Nearest-rank percentile over a {!sorted_samples} array, O(1). *)

val latency_percentile : t -> float -> float
(** Percentile of the run's propose→commit latencies, served from a
    memoized sorted view that each new latency invalidates — so analyzers
    querying many ranks of a finished run sort once, not per query. *)

val mean_latency : t -> float
val blocks_per_second : t -> window:float -> float
val mean_bytes_per_party_per_second : t -> window:float -> float
