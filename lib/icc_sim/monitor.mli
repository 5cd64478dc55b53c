(** Online invariant monitor over the {!Trace} bus.

    Incrementally verifies the paper's safety statements as events arrive —
    P2 (a finalized round-k block excludes conflicting round-k
    notarizations), committed-prefix consistency across parties, and
    quorum-count sanity — and runs a liveness watchdog that flags rounds
    whose entry → notarize → decide pipeline exceeds a configurable
    multiple of the delay bound Δ.

    The monitor is a pure bus consumer: it never mutates simulation state
    or schedules engine work, so a monitored run of a given seed is
    byte-identical to an unmonitored one.  Detections are announced back
    on the bus as [Monitor_violation] / [Monitor_stall] / [Monitor_clear]
    events (subscribe the JSONL sink before attaching the monitor and the
    announcements land right after the offending line). *)

type config = {
  delta : float;  (** The delay bound Δ the watchdog scales by. *)
  stall_factor : float;
      (** A pipeline stage stalls after [stall_factor *. delta] without
          progress. *)
  abort_on_violation : bool;
      (** Raise {!Abort} on the first fatal violation instead of
          recording it. *)
}

val default_config :
  ?stall_factor:float -> ?abort_on_violation:bool -> delta:float -> unit ->
  config
(** Defaults: [stall_factor = 8.], [abort_on_violation = false]. *)

type violation = {
  v_index : int;
      (** 0-based bus event index at detection — the line number in a
          JSONL dump written by a sink subscribed alongside the monitor. *)
  v_time : float;
  v_round : int;
  v_what : string;  (** Stable tag, e.g. ["conflicting-notarization"]. *)
  v_detail : string;
  v_fatal : bool;
      (** Fatal: safety actually broken (P2 conflict, fork, commit
          regression, counting overflow).  Non-fatal: Byzantine evidence
          the protocol tolerates (double notarization without a
          finalization, duplicate shares). *)
}

type stall = {
  st_round : int;
  st_stage : string;  (** ["entry"], ["notarize"] or ["decide"]. *)
  st_since : float;  (** When the stage started waiting. *)
  st_flagged_at : float;
  mutable st_cleared_at : float option;
      (** Set when the awaited milestone finally arrived. *)
}

exception Abort of violation
(** Raised mid-run (from inside the emitting layer's call stack) when
    [abort_on_violation] is set, carrying the event-indexed diagnosis. *)

val violation_message : violation -> string

type t

val create : ?trace:Trace.t -> config -> t
(** A detached monitor; feed it with {!observe} (the offline replay path).
    [trace] is where [Monitor_*] announcements are emitted, if given. *)

val attach : ?config:config -> Trace.t -> t
(** [create] + subscribe to every event of [trace]; announcements go back
    on the same bus.  Default config: [delta = 1.0]. *)

val observe : t -> time:float -> Trace.event -> unit
(** Consume one event.  [Monitor_*] events are counted (so indices keep
    matching file lines) but change no state. *)

val events_seen : t -> int
val violations : t -> violation list  (** In detection order. *)

val fatal_violations : t -> violation list
val warnings : t -> violation list
val stalls : t -> stall list  (** In flag order, recovered or not. *)

val stalled_rounds : t -> int list
(** Rounds with an unrecovered stall, ascending. *)

val ok : t -> bool
(** No fatal violation recorded. *)

val summary : t -> string  (** One line. *)

val report : t -> string
(** Multi-line: the summary plus one line per violation and stall. *)
