(* The six protocols, each named once and dispatched once: ICC0/1/2 run an
   [Icc_core.Runner.scenario], the baselines an [Icc_baselines.Harness]
   one.  Labels in upper case ("ICC0") derive from the one name. *)

module Icc = struct
  type t = Icc0 | Icc1 of { fanout : int } | Icc2

  let icc1 = Icc1 { fanout = Icc_gossip.Icc1.default_fanout }
  let all = [ Icc0; icc1; Icc2 ]
  let name = function Icc0 -> "icc0" | Icc1 _ -> "icc1" | Icc2 -> "icc2"
  let label p = String.uppercase_ascii (name p)

  let with_fanout fanout = function
    | Icc1 _ -> Icc1 { fanout }
    | (Icc0 | Icc2) as p -> p

  let run = function
    | Icc0 -> Icc_core.Runner.run
    | Icc1 { fanout } -> Icc_gossip.Icc1.run ~fanout
    | Icc2 -> Icc_rbc.Icc2.run
end

module Baseline = struct
  type t = Pbft | Hotstuff | Tendermint

  let all = [ Pbft; Hotstuff; Tendermint ]

  let name = function
    | Pbft -> "pbft"
    | Hotstuff -> "hotstuff"
    | Tendermint -> "tendermint"

  let run = function
    | Pbft -> Icc_baselines.Pbft.run
    | Hotstuff -> Icc_baselines.Hotstuff.run
    | Tendermint -> Icc_baselines.Tendermint.run
end
