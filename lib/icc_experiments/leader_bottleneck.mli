(** Experiment E5 — the dissemination bottleneck: max per-party bytes per
    round in units of the block size S for ICC0 (~n·S), ICC1 (~fanout·S)
    and ICC2 (~3·S).  See EXPERIMENTS.md §E5. *)

type row = {
  protocol : string;
  block_size : int;
  max_bytes_per_round : float;
  in_units_of_s : float;
  total_bytes_per_round : float;
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
