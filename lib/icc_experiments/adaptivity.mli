(** Experiment E9 (extension) — adapting to an unknown delay bound: a
    static bound 10x below the true delay starves finalization entirely
    while the tree keeps growing; the adaptive variant recovers commits and
    the normal message rate.  See EXPERIMENTS.md §E9. *)

type row = {
  variant : string;
  delta : float;
  delta_bnd : float;
  rounds_decided : int;
  proposals_per_round : float;
  msgs_per_round : float;
  safety : bool;
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
