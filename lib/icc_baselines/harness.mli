(** Shared scenario/result shapes and the run frame of the baseline
    protocols (PBFT, chained HotStuff, Tendermint), mirroring
    [Icc_core.Runner] so experiments can compare the protocols on
    identical workloads and networks. *)

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

val baseline_classify : string -> Icc_sim.Adversary.share_class option
(** Maps baseline wire kinds to share classes (PBFT [prepare]/[commit],
    HotStuff [hs-vote], Tendermint [tm-prevote]/[tm-precommit]) so
    withhold directives apply at the network level. *)

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
val note_execution :
  tracker -> party:int -> digest:string -> time:float -> unit
(** Record one honest execution: emits [Commit] at the replica's
    execution index (so the monitor's fork and regression checks see
    every replica), then [Block_decided] once every honest replica has
    executed [digest]. *)

val votes_for : ('k, ('v, 'w) Hashtbl.t) Hashtbl.t -> 'k -> ('v, 'w) Hashtbl.t
(** The voters under [key], an empty set on first use. *)

(** {1 Run frame}

    What every baseline run shares: the seeded RNG streams, the transport
    env with its monitor, the links and the network, the honest set and
    its commit tracker, the [kill_at] schedule, the stall timer, and the
    result.  A baseline supplies only its {!node}. *)

(** A replica's liveness, read and written by the frame's [kill_at]
    schedule and stall timer. *)
type live = { mutable crashed : bool; mutable last_progress : float }

val live : scenario -> int -> live
(** Replica [id]'s liveness at time 0: down iff [crashed] names it. *)

(** What a baseline's handlers reach besides its own replicas. *)
type 'msg frame = {
  scenario : scenario;
  engine : Icc_sim.Engine.t;
  net : 'msg Icc_sim.Network.t;
  tracker : tracker;
  honest : int list;  (** Neither crashed, killed nor statically corrupt. *)
}

val now : 'msg frame -> float

val note_proposal : 'msg frame -> digest:string -> unit
(** Record [digest]'s first proposal time, where its latency starts. *)

val note_executed : 'msg frame -> party:int -> digest:string -> unit
(** {!note_execution} now, if [party] is honest. *)

(** One baseline protocol. *)
type ('replica, 'msg) node = {
  label : string;  (** The [Run_start] / [Run_end] label. *)
  replicas :
    scenario ->
    keys:
      (Icc_crypto.Schnorr.secret_key * Icc_crypto.Schnorr.public_key) array ->
    Icc_sim.Rng.t ->
    'replica array;
      (** Replicas [1..n] from their Schnorr key pairs; any further key
          material is drawn from the given key stream. *)
  live : 'replica -> live;
  on_message : 'msg frame -> 'replica -> 'msg -> unit;
      (** Called only while the replica is up. *)
  on_stall : ('msg frame -> 'replica -> unit) option;
      (** Fired once a live replica has made no progress for [timeout];
          the frame has already reset its [last_progress]. *)
  kickoff : 'msg frame -> 'replica array -> unit;
  executed : 'replica -> string list;  (** Executed digests, oldest first. *)
}

val run : ('replica, 'msg) node -> scenario -> result
(** Run [node] on [scenario].  The key stream is split before the network
    stream; the engine receives the handler, then the [kill_at] schedule,
    then the stall timers, then the kickoff. *)
