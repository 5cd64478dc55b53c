(** Experiment E1 — the paper's Table 1: average block rate and consensus
    traffic per node for 13- and 40-node subnets under no load, 100 req/s
    of 1 KB, and the same load with n/3 failed nodes; ICC1 over the WAN
    delay model.  See EXPERIMENTS.md §E1. *)

type row = {
  subnet : int;
  scenario : string;
  blocks_per_s : float;
  mbit_per_node_s : float;
  paper_blocks_per_s : float;  (** The paper's Table 1 value. *)
  paper_mbit_per_node_s : float;  (** The paper's Table 1 value. *)
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
