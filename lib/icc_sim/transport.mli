(** The shared instrumented transport substrate: the one place that wires an
    engine, a {!Trace} bus and a {!Metrics} consumer together, and builds
    the delay model, nemesis and adversary of a run's links.  ICC0, ICC1,
    ICC2 and the baselines all construct their runs through this module,
    so every protocol emits the same event stream. *)

type env = {
  engine : Engine.t;
  trace : Trace.t;
  metrics : Metrics.t;
  n : int;
}

val env : ?trace:Trace.t -> n:int -> unit -> env
(** Fresh engine and metrics for one run.  [metrics] is attached to the
    bus ([trace] if given, else a private one); if the bus already has a
    detail subscriber, engine dispatch is observed onto it as well. *)

type delay_spec =
  | Fixed_delay of float
  | Uniform_delay of float * float
  | Wan of { rtt_lo : float; rtt_hi : float }
      (** Per-pair one-way delays from RTT ~ U[lo, hi] — the paper's
          observed 6–110 ms inter-datacenter range. *)

(** What every {!Network} of one run is created with, besides its
    asynchrony hold. *)
type links = {
  delay_model : Network.delay_model;
  fault : Fault.t option;
  adversary : Adversary.t option;
}

val links :
  env ->
  rng:Rng.t ->
  net_rng:Rng.t ->
  ?classify:(string -> Adversary.share_class option) ->
  parties:(string * int list) list ->
  nemesis:Fault.script option ->
  adversary:Adversary.script option ->
  delay_spec ->
  links
(** The links of one run, for ICC0/1/2 and the baselines alike.  The delay
    model draws from [net_rng]; then a {!Fault} is created on a split of
    the root [rng] only when a nemesis script is present, then an
    {!Adversary} (with [classify]) on a further split only when its script
    is non-empty — the order every historical trace was recorded in.

    Raises [Invalid_argument], naming the directive and field, when a
    script names a party id outside 1..n; [parties] lists the run's other
    id-bearing fields by name (e.g. [("kill_at", ids)]) for the same
    check. *)
