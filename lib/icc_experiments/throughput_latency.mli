(** Experiment E4 — reciprocal throughput (2δ ICC0/ICC1, 3δ ICC2), commit
    latency (3δ / 4δ) and optimistic responsiveness across a network-delay
    sweep.  See EXPERIMENTS.md §E4. *)

type row = {
  protocol : string;
  delta : float;
  round_time : float;
  latency : float;
  round_time_in_delta : float;
  latency_in_delta : float;
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
