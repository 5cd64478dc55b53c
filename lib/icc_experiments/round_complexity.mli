(** Experiment E3 — round complexity: O(1) expected rounds to decision
    under a static adversary; rounds led by stealthy equivocators decide
    only later.  See EXPERIMENTS.md §E3. *)

type row = {
  n : int;
  beta : float;
  rounds : int;
  finalized_fraction : float;
  max_gap : int;
  blocks_per_s : float;
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
