(** Experiment E6 — ICC0 against PBFT, chained HotStuff and Tendermint on
    an identical network, fault-free and with a crashed leader.  See
    EXPERIMENTS.md §E6. *)

type row = {
  protocol : string;
  condition : string;
  blocks_per_s : float;
  latency : float;
  latency_in_delta : float;
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
