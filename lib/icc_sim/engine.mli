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
