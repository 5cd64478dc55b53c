(** The protocol table: the six protocols this repository compares (paper
    §1.1), each named once and dispatched once.  Every protocol choice in
    the CLI, the experiments and the benches goes through here. *)

(** ICC0 (direct broadcast), ICC1 (ICC0 over gossip) and ICC2 (ICC0 over
    erasure-coded reliable broadcast). *)
module Icc : sig
  type t = Icc0 | Icc1 of { fanout : int } | Icc2

  val icc1 : t
  (** ICC1 at {!Icc_gossip.Icc1.default_fanout}. *)

  val all : t list
  (** ICC0, {!icc1}, ICC2. *)

  val name : t -> string
  (** ["icc0"], ["icc1"], ["icc2"]: the CLI's [-p] value. *)

  val label : t -> string
  (** {!name} in upper case, as tables print it. *)

  val with_fanout : int -> t -> t
  (** Sets ICC1's gossip fanout; ICC0 and ICC2 have none. *)

  val run : t -> Icc_core.Runner.scenario -> Icc_core.Runner.result
end

(** The PBFT, chained HotStuff and Tendermint baselines. *)
module Baseline : sig
  type t = Pbft | Hotstuff | Tendermint

  val all : t list

  val name : t -> string
  (** ["pbft"], ["hotstuff"], ["tendermint"]: the CLI's [-p] value. *)

  val run : t -> Icc_baselines.Harness.scenario -> Icc_baselines.Harness.result
end
