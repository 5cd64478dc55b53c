(** Scenario runner for Protocol ICC0 (and, via pluggable transports, ICC1
    and ICC2): builds keys, network, workload and parties, runs the
    discrete-event simulation, and evaluates the global correctness
    oracles. *)

type delay_spec = Icc_sim.Transport.delay_spec =
  | Fixed_delay of float
  | Uniform_delay of float * float
  | Wan of { rtt_lo : float; rtt_hi : float }
      (** Per-pair one-way delays from RTT ~ U[lo, hi] — the paper's
          observed 6–110 ms inter-datacenter range. *)

(** {1 Transports}

    The dissemination layer under the protocol.  [None] in a scenario means
    ICC0's direct broadcast; {!Icc_gossip.Icc1} and {!Icc_rbc.Icc2} supply
    their sub-layers through this hook. *)

type transport_ctx = {
  tr_engine : Icc_sim.Engine.t;
  tr_trace : Icc_sim.Trace.t;
      (** The run's trace bus; the transport's network must emit on it so
          the run's metrics see the traffic. *)
  tr_n : int;
  tr_t : int;
  tr_rng : Icc_sim.Rng.t;
  tr_delay_model : Icc_sim.Network.delay_model;
  tr_async_until : float;  (** Adversarial asynchrony hold. *)
  tr_fault : Icc_sim.Fault.t option;  (** The scenario's nemesis. *)
  tr_adversary : Icc_sim.Adversary.t option;
      (** The scenario's Byzantine adversary. *)
  tr_is_active : int -> bool;  (** False once a party has crashed. *)
  tr_deliver : dst:int -> Message.t -> unit;
  tr_system : Icc_crypto.Keygen.system;
  tr_keys : Icc_crypto.Keygen.party_keys array;
      (** A transport sub-layer conceptually runs inside each party's
          process and may use that party's keys. *)
}

type transport_impl = {
  tx_broadcast : src:int -> Message.t -> unit;
  tx_unicast : src:int -> dst:int -> Message.t -> unit;
}

type transport = transport_ctx -> transport_impl

val network : transport_ctx -> 'msg Icc_sim.Network.t
(** A network created with the context's delay model, asynchrony hold,
    nemesis and adversary.  Every transport builds its networks through
    this, so link faults and Byzantine interposition apply uniformly to
    direct, gossip and RBC traffic. *)

val direct_transport : transport
(** ICC0: one broadcast network at modeled wire sizes. *)

(** {1 Scenarios} *)

type workload =
  | No_load  (** Management filler only (Table 1 scenario 1). *)
  | Load of { rate_per_s : float; cmd_size : int }
      (** Client commands (Table 1 scenario 2). *)
  | Fixed_block_size of int  (** Leader-bottleneck experiments. *)
  | Tagged_load of {
      rate_per_s : float;
      cmd_size : int;
      make_tag : int -> string;
    }  (** Commands carrying application data (the SMR layer). *)

type scenario = {
  n : int;
  t_corrupt : int;
  seed : int;
  delta_bnd : float;
  epsilon : float;
  delay : delay_spec;
  behaviors : (int * Party.behavior) list;  (** Unlisted parties are honest. *)
  kill_at : (int * float) list;  (** Crash a party mid-run. *)
  duration : float;  (** Simulated seconds. *)
  max_rounds : int option;  (** Stop once some party commits this round. *)
  workload : workload;
  non_responsive : bool;  (** Use the Tendermint-style delay functions. *)
  async_until : float;  (** Adversarial asynchrony at the start of the run. *)
  transport : transport option;
  adaptive : bool;  (** Adaptive delay-bound estimation (paper §1). *)
  prune_depth : int option;  (** Pool garbage collection below kmax. *)
  trace : Icc_sim.Trace.t option;
      (** Observe the run on an external trace bus (e.g. the [--trace]
          JSONL dump); [None] runs on a private bus feeding only metrics. *)
  monitor : Icc_sim.Monitor.config option;
      (** Attach the online invariant monitor to the run's bus.  With
          [abort_on_violation] set, the run raises {!Icc_sim.Monitor.Abort}
          at the first fatal violation instead of returning a bad result. *)
  nemesis : Icc_sim.Fault.script option;
      (** Deterministic fault injection: link loss / duplication /
          reordering / flaps, healing partitions, and timed crash–recover
          directives.  Parties the script crashes without recovering are
          treated like [kill_at] (excluded from the honest set);
          crash–recover cycles keep the party honest — it must rejoin and
          commit everything. *)
  adversary : Icc_sim.Adversary.script option;
      (** Byzantine strategy script ({!Icc_sim.Adversary}): equivocation,
          share withholding, censorship, stealthy-leader delays, crash
          windows, straggling, and adaptive corruption.  Statically
          targeted parties are excluded from the honest set upfront;
          adaptively corrupted ones are subtracted after the run.  [None]
          (or [Some []]) runs fully honest with the adversary layer
          inactive — and the RNG streams untouched, so traces are
          byte-identical to pre-adversary builds. *)
  resync : Config.resync option;
      (** Override the pool-resync parameters.  [None] means: off without a
          nemesis, {!Config.default_resync} with one. *)
}

val default_scenario : n:int -> seed:int -> scenario

val behavior_of : scenario -> int -> Party.behavior

type result = {
  metrics : Icc_sim.Metrics.t;
  monitor : Icc_sim.Monitor.t option;
      (** The attached monitor, for its online verdict and stall log. *)
  duration : float;  (** Simulated time actually elapsed. *)
  outputs : (int * Block.t list) list;
      (** Honest parties' committed chains. *)
  safety_ok : bool;  (** [prefix_ok && p2_ok]. *)
  prefix_ok : bool;  (** Committed chains pairwise prefix-consistent (§1). *)
  p2_ok : bool;  (** No conflicting notarization next to a finalization. *)
  p1_ok : bool;  (** Deadlock freeness up to the slowest honest party. *)
  rounds_decided : int;  (** Highest round committed by every honest party. *)
  directly_finalized : int list;
      (** Rounds holding a finalization certificate in some honest pool —
          decided in the round itself rather than by a descendant. *)
  blocks_per_s : float;
  mean_latency : float;  (** Propose → all-honest-commit. *)
  honest : int list;
  commands_committed : int;
  mean_command_latency : float;
}

val run : scenario -> result
(** Raises [Invalid_argument] before the simulation starts when [behaviors],
    [kill_at] or a [nemesis]/[adversary] directive names a party outside
    1..[n] (see {!Icc_sim.Transport.links}). *)
