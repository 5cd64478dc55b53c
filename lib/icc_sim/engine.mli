(** Deterministic discrete-event simulation engine. *)

type t

val create : unit -> t
val now : t -> float
val pending : t -> int
val processed : t -> int

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] if [time] is nan or before the current
    clock. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit

type lane
(** A FIFO of events that all run one closure, for a source whose events
    fall due in the order they are scheduled (a link of constant delay).
    A non-empty lane costs one heap node, whatever its length, and each of
    its events one cell of a pool that all lanes share. *)

val lane : t -> (unit -> unit) -> lane
(** [lane t fire] is an empty lane whose every event runs [fire]. *)

val schedule_lane : t -> lane -> time:float -> int
(** Queue one event on the lane, taking the next insertion sequence number
    exactly as {!schedule_at} does, so the dispatch order stays [(time,
    insertion)].  Returns the event's cell: a small int, the event's own
    until it is dispatched, by which the lane's owner keys the event's
    payload.  Raises [Invalid_argument] if [time] is nan, before the
    current clock, or before the lane's tail. *)

val fired_cell : t -> int
(** Inside a lane's [fire], the cell of the event being dispatched.  The
    cell is free again: read its payload before scheduling anything. *)

val lane_tail : t -> lane -> float
(** The time of the lane's last queued event, or [neg_infinity] when the
    lane is empty. *)

val stop : t -> 'a
(** Abort the run from inside a handler. *)

val set_observer : t -> (time:float -> seq:int -> unit) -> unit
(** Instrumentation hook called before each dispatched handler with the
    dispatch time and the event's insertion sequence number.  The observer
    must not mutate simulation state. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Process events in [(time, insertion)] order until the queue drains, the
    clock would pass [until] (the clock is then set to [until]), or
    [max_events] handlers have run. *)
