(** Experiment E2 — message complexity per round: O(n^2) w.h.p. in
    synchronous rounds (worst case O(n^3)).  See EXPERIMENTS.md §E2. *)

type row = {
  n : int;
  scenario : string;
  msgs_per_round : float;
  normalized_n2 : float;
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
