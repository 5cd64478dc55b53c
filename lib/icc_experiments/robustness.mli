(** Experiment E7 — robust consensus: n/3 parties crash mid-run; the block
    rate degrades to roughly the honest-leader fraction and never to zero.
    The recovery extension crashes the same parties through the nemesis
    layer (with 20% link loss while they are down) and lets them recover:
    pool-resync rehydrates them and the post-rejoin block rate returns to
    ~1x the pre-fault rate.  See EXPERIMENTS.md §E7. *)

type row = {
  protocol : string;
  before_blocks_per_s : float;
  after_blocks_per_s : float;  (** Rate while the parties are down. *)
  degradation : float;
  recovery : float option;
      (** Post-rejoin rate / pre-fault rate; [None] for rows without a
          recovery phase. *)
  safety : bool;
}

val run : ?quick:bool -> unit -> row list
val print : row list -> unit
