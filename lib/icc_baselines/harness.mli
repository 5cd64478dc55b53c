(** Shared scenario/result shapes for the baseline protocols (PBFT, chained
    HotStuff), mirroring [Icc_core.Runner] so experiments can compare the
    protocols on identical workloads and networks. *)

type scenario = {
  n : int;
  t : int;
  seed : int;
  delay : Icc_core.Runner.delay_spec;
  duration : float;
  block_size : int;  (** Modeled batch payload bytes. *)
  crashed : int list;
  kill_at : (int * float) list;
  timeout : float;  (** View-change / pacemaker timeout. *)
  pipeline_window : int;  (** PBFT: batches in flight. *)
  trace : Icc_sim.Trace.t option;  (** Observe the run; [None] = untraced. *)
  monitor : Icc_sim.Monitor.config option;
      (** Attach the online invariant monitor to the run's bus. *)
  nemesis : Icc_sim.Fault.script option;
      (** Link faults (drop / duplicate / reorder / flap / partition) on
          the baseline's network; crash/recover directives are ignored by
          the baselines — use [crashed] / [kill_at] instead. *)
  adversary : Icc_sim.Adversary.script option;
      (** Byzantine strategies on the baseline's network.  Only statically
          targeted directives apply (the baselines have no protocol-layer
          hooks): share withholding works at the wire via
          {!baseline_classify}; censorship, stealthy delays, straggling and
          crash windows apply as on any network; equivocation directives
          are inert. *)
}

val default_scenario : n:int -> seed:int -> scenario

val attach_monitor :
  scenario -> Icc_sim.Transport.env -> Icc_sim.Monitor.t option
(** Attach the scenario's monitor (if any) to a freshly built transport
    env, before any event flows. *)

val party_ids : scenario -> (string * int list) list
(** [crashed] and [kill_at]'s replica ids, named for the range check of
    {!Icc_sim.Transport.links}. *)

val baseline_classify : string -> Icc_sim.Adversary.share_class option
(** Maps baseline wire kinds to share classes (PBFT [prepare]/[commit],
    HotStuff [hs-vote], Tendermint [tm-prevote]/[tm-precommit]) so
    withhold directives apply at the network level. *)

val adversary_corrupt : scenario -> int list
(** Replicas statically corrupted by the scenario's adversary script —
    excluded from honest-commit accounting, like [crashed]. *)

type result = {
  metrics : Icc_sim.Metrics.t;
  monitor : Icc_sim.Monitor.t option;
  duration : float;
  blocks_committed : int;  (** Decided by every honest replica. *)
  blocks_per_s : float;
  mean_latency : float;  (** Propose → all honest executed. *)
  safety_ok : bool;  (** Executed sequences prefix-consistent. *)
  outputs : (int * string list) list;
      (** Per honest replica, executed digests in order. *)
}

val prefix_consistent : (int * string list) list -> bool

(** Commit tracking shared by the baselines: a batch counts as decided when
    every honest replica has executed it. *)
type tracker = {
  n_honest : int;
  trace : Icc_sim.Trace.t;
  counts : (string, int) Hashtbl.t;
  executed : (int, int) Hashtbl.t;  (** Replica -> batches executed. *)
  mutable decided : int;
  mutable latencies : float list;
  propose_times : (string, float) Hashtbl.t;
}

val tracker : n_honest:int -> trace:Icc_sim.Trace.t -> tracker
val note_proposal : tracker -> digest:string -> time:float -> unit
val note_execution :
  tracker -> party:int -> digest:string -> time:float -> unit
(** Record one honest execution: emits [Commit] at the replica's
    execution index (so the monitor's fork and regression checks see
    every replica), then [Block_decided] once every honest replica has
    executed [digest]. *)
