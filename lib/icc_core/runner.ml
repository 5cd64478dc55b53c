(* Scenario runner for Protocol ICC0: builds keys, network, workload and
   parties, runs the discrete-event simulation, and evaluates the global
   correctness oracles. *)

type delay_spec = Icc_sim.Transport.delay_spec =
  | Fixed_delay of float
  | Uniform_delay of float * float
  | Wan of { rtt_lo : float; rtt_hi : float }

(* The dissemination layer under the protocol.  ICC0 broadcasts directly;
   ICC1 (icc_gossip) and ICC2 (icc_rbc) plug in their sub-layers here. *)
type transport_ctx = {
  tr_engine : Icc_sim.Engine.t;
  tr_trace : Icc_sim.Trace.t;
  tr_n : int;
  tr_t : int;
  tr_rng : Icc_sim.Rng.t;
  tr_delay_model : Icc_sim.Network.delay_model;
  tr_async_until : float;
  tr_fault : Icc_sim.Fault.t option;
  tr_adversary : Icc_sim.Adversary.t option;
  tr_is_active : int -> bool; (* false once a party has crashed *)
  tr_deliver : dst:int -> Message.t -> unit;
  tr_system : Icc_crypto.Keygen.system;
  tr_keys : Icc_crypto.Keygen.party_keys array;
      (* index 0 = party 1; a transport sub-layer conceptually runs inside
         each party's process and may use that party's keys *)
}

type transport_impl = {
  tx_broadcast : src:int -> Message.t -> unit;
  tx_unicast : src:int -> dst:int -> Message.t -> unit;
}

type transport = transport_ctx -> transport_impl

type workload =
  | No_load (* management filler only, paper Table 1 scenario 1 *)
  | Load of { rate_per_s : float; cmd_size : int } (* Table 1 scenario 2 *)
  | Fixed_block_size of int (* leader-bottleneck experiments *)
  | Tagged_load of {
      rate_per_s : float;
      cmd_size : int;
      make_tag : int -> string; (* application payload per command id *)
    }

type scenario = {
  n : int;
  t_corrupt : int;
  seed : int;
  delta_bnd : float;
  epsilon : float;
  delay : delay_spec;
  behaviors : (int * Party.behavior) list; (* unlisted parties are honest *)
  kill_at : (int * float) list; (* (party, time): crash mid-run *)
  duration : float;
  max_rounds : int option; (* stop once some party commits this round *)
  workload : workload;
  non_responsive : bool;
  async_until : float; (* adversarial asynchrony at the start of the run *)
  transport : transport option; (* None = ICC0 direct broadcast *)
  adaptive : bool; (* adaptive delay-bound estimation (paper §1) *)
  prune_depth : int option; (* pool garbage collection below kmax *)
  trace : Icc_sim.Trace.t option; (* observe the run on an external bus *)
  monitor : Icc_sim.Monitor.config option; (* online invariant monitor *)
  nemesis : Icc_sim.Fault.script option; (* deterministic fault injection *)
  adversary : Icc_sim.Adversary.script option;
      (* Byzantine strategy script; None (or Some []) = all parties honest *)
  resync : Config.resync option;
      (* pool-resync retransmission; defaults on (with default parameters)
         whenever a nemesis script is present *)
}

let default_scenario ~n ~seed =
  {
    n;
    t_corrupt = Icc_crypto.Keygen.max_corrupt ~n;
    seed;
    delta_bnd = 1.0;
    epsilon = 0.2;
    delay = Fixed_delay 0.05;
    behaviors = [];
    kill_at = [];
    duration = 60.;
    max_rounds = None;
    workload = No_load;
    non_responsive = false;
    async_until = 0.;
    transport = None;
    adaptive = false;
    prune_depth = None;
    trace = None;
    monitor = None;
    nemesis = None;
    adversary = None;
    resync = None;
  }

(* Every network a transport builds carries the run's whole release
   policy, so direct, gossip and RBC traffic are interposed alike. *)
let network ctx =
  Icc_sim.Network.create ctx.tr_engine ~n:ctx.tr_n ~trace:ctx.tr_trace
    ~delay_model:ctx.tr_delay_model ~hold_until:ctx.tr_async_until
    ?fault:ctx.tr_fault ?adversary:ctx.tr_adversary ()

(* ICC0's transport: one broadcast network, messages accounted at their
   modeled wire sizes. *)
let direct_transport ctx =
  let net = network ctx in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ msg -> ctx.tr_deliver ~dst msg);
  {
    tx_broadcast =
      (fun ~src msg ->
        Icc_sim.Network.broadcast net ~src
          ~size:(Message.wire_size ~n:ctx.tr_n msg)
          ~kind:(Message.kind msg) msg);
    tx_unicast =
      (fun ~src ~dst msg ->
        Icc_sim.Network.unicast net ~src ~dst
          ~size:(Message.wire_size ~n:ctx.tr_n msg)
          ~kind:(Message.kind msg) msg);
  }

type result = {
  metrics : Icc_sim.Metrics.t;
  monitor : Icc_sim.Monitor.t option; (* online verdict, when attached *)
  duration : float; (* simulated time actually elapsed *)
  outputs : (int * Block.t list) list; (* honest parties' committed chains *)
  safety_ok : bool; (* output consistency /\ P2 *)
  prefix_ok : bool; (* committed chains pairwise prefix-consistent *)
  p2_ok : bool; (* no conflicting notarization next to a finalization *)
  p1_ok : bool;
  rounds_decided : int; (* highest round committed by every honest party *)
  directly_finalized : int list;
      (* rounds for which some honest pool holds a finalization certificate:
         rounds decided in the round itself rather than by a descendant *)
  blocks_per_s : float;
  mean_latency : float; (* propose -> all-honest-commit, honest proposals *)
  honest : int list;
  commands_committed : int;
  mean_command_latency : float;
}

let management_filler = 120

module Int_set = Set.Make (Int)

(* Command ids already committed on the chain ending at [parent], memoised
   by block hash: payload deduplication for getPayload (paper §3.3).
   Persistent sets share structure along the chain, so the memo stays
   linear in the number of commands. *)
let make_dedup pool_cache =
  let rec ids_of pool (b : Block.t) =
    let h = Block.hash b in
    match Hashtbl.find_opt pool_cache h with
    | Some s -> s
    | None ->
        let parent_ids =
          if b.Block.round = 1 then Int_set.empty
          else
            match Pool.find_block pool (b.Block.round - 1, b.Block.parent_hash) with
            | Some p -> ids_of pool p
            | None -> Int_set.empty
        in
        let s =
          List.fold_left
            (fun acc c -> Int_set.add c.Types.cmd_id acc)
            parent_ids b.Block.payload.Types.commands
        in
        Hashtbl.replace pool_cache h s;
        s
  in
  ids_of

let behavior_of scenario id =
  match List.assoc_opt id scenario.behaviors with
  | Some b -> b
  | None -> Party.honest

let run scenario =
  let n = scenario.n and t = scenario.t_corrupt in
  let rng = Icc_sim.Rng.create scenario.seed in
  let key_rng = Icc_sim.Rng.split rng in
  let net_rng = Icc_sim.Rng.split rng in
  let load_rng = Icc_sim.Rng.split rng in
  let system, keys = Icc_crypto.Keygen.generate ~n ~t (fun () -> Icc_sim.Rng.bits61 key_rng) in
  let config =
    if scenario.non_responsive then
      Config.non_responsive ~delta_bnd:scenario.delta_bnd ~n ~t ()
    else
      Config.recommended ~delta_bnd:scenario.delta_bnd ~epsilon:scenario.epsilon
        ~adaptive:scenario.adaptive ?prune_depth:scenario.prune_depth ~n ~t ()
  in
  (* Lossy links and crash–recovery both need the resync sub-layer for
     liveness, so a nemesis script switches it on by default. *)
  let config =
    let resync =
      match scenario.resync with
      | Some _ as r -> r
      | None ->
          if scenario.nemesis = None then None
          else Some (Config.default_resync ())
    in
    { config with Config.resync }
  in
  let tenv = Icc_sim.Transport.env ?trace:scenario.trace ~n () in
  let engine = tenv.Icc_sim.Transport.engine in
  let metrics = tenv.Icc_sim.Transport.metrics in
  let trace = tenv.Icc_sim.Transport.trace in
  (* The monitor subscribes after any external sink (e.g. the JSONL dump),
     so its Monitor_* announcements land right after the offending line. *)
  let monitor =
    Option.map (fun config -> Icc_sim.Monitor.attach ~config trace)
      scenario.monitor
  in
  let run_label =
    match scenario.transport with None -> "icc0" | Some _ -> "icc"
  in
  Icc_sim.Trace.emit trace ~time:0.
    (Icc_sim.Trace.Run_start { n; label = run_label });
  let { Icc_sim.Transport.delay_model; fault; adversary } =
    Icc_sim.Transport.links tenv ~rng ~net_rng
      ~parties:
        [
          ("behaviors", List.map fst scenario.behaviors);
          ("kill_at", List.map fst scenario.kill_at);
        ]
      ~nemesis:scenario.nemesis ~adversary:scenario.adversary scenario.delay
  in
  let adv_script = Option.map Icc_sim.Adversary.script adversary in
  (* Client workload: commands are submitted to every party (clients
     broadcast); client->replica traffic is not consensus traffic and is not
     accounted. *)
  let pending : Types.command list ref = ref [] in
  let next_cmd_id = ref 0 in
  let submit_command ?tag ~size ~time () =
    incr next_cmd_id;
    pending :=
      Types.command ?tag ~cmd_id:!next_cmd_id ~cmd_size:size ~submitted_at:time
        ()
      :: !pending
  in
  let arrivals ~rate_per_s ~submit =
    let dt = 1. /. rate_per_s in
    let rec arrival time =
      if time <= scenario.duration then
        Icc_sim.Engine.schedule_at engine ~time (fun () ->
            submit ~time;
            (* jittered next arrival around the nominal rate *)
            arrival (time +. (dt *. Icc_sim.Rng.float_range load_rng 0.5 1.5)))
    in
    arrival (dt *. Icc_sim.Rng.float load_rng 1.)
  in
  (match scenario.workload with
  | Load { rate_per_s; cmd_size } ->
      arrivals ~rate_per_s ~submit:(fun ~time ->
          submit_command ~size:cmd_size ~time ())
  | Tagged_load { rate_per_s; cmd_size; make_tag } ->
      arrivals ~rate_per_s ~submit:(fun ~time ->
          submit_command ~tag:(make_tag (!next_cmd_id + 1)) ~size:cmd_size
            ~time ())
  | No_load | Fixed_block_size _ -> ());

  let dedup_cache = Hashtbl.create 256 in
  let chain_ids = make_dedup dedup_cache in
  let get_payload ~pool ~parent ~round:_ ~proposer:_ =
    match scenario.workload with
    | No_load -> { Types.commands = []; filler_size = management_filler }
    | Fixed_block_size size -> { Types.commands = []; filler_size = size }
    | Load _ | Tagged_load _ ->
        let included =
          match parent with Some b -> chain_ids pool b | None -> Int_set.empty
        in
        let fresh =
          List.filter
            (fun c -> not (Int_set.mem c.Types.cmd_id included))
            !pending
        in
        { Types.commands = fresh; filler_size = management_filler }
  in

  (* Commit tracking: a block counts as decided when every honest party has
     output it; latency is measured from its proposal broadcast. *)
  (* Parties a nemesis script crashes without recovering are excluded from
     the honest set (like kill_at); crash–recover cycles keep a party
     honest — it is expected to rejoin and commit everything. *)
  let nemesis_down =
    match scenario.nemesis with
    | None -> []
    | Some script -> Icc_sim.Fault.finally_down script
  in
  (* Statically scripted corrupt parties are excluded from the honest set
     upfront; adaptively corrupted ones are subtracted after the run (the
     adversary only learns who it corrupted as triggers fire). *)
  let adv_static_corrupt =
    match adv_script with
    | None -> []
    | Some script -> Icc_sim.Adversary.static_corrupt script
  in
  let honest_ids =
    List.init n (fun i -> i + 1)
    |> List.filter (fun id -> behavior_of scenario id = Party.honest)
    |> List.filter (fun id -> not (List.mem_assoc id scenario.kill_at))
    |> List.filter (fun id -> not (List.mem id nemesis_down))
    |> List.filter (fun id -> not (List.mem id adv_static_corrupt))
  in
  let n_honest = List.length honest_ids in
  (* O(1) honest-set membership for the per-output hot path (the list scan
     was O(n) per committed block per party — O(n²) per round at scale). *)
  let is_honest = Array.make (n + 1) false in
  List.iter (fun id -> is_honest.(id) <- true) honest_ids;
  let commit_count : (Types.round * Icc_crypto.Sha256.t, int) Hashtbl.t =
    Hashtbl.create 256
  in
  let committed_cmds = ref 0 in
  let cmd_latencies = ref [] in
  let stop_requested = ref false in
  let on_output ~party (b : Block.t) =
    if party >= 1 && party <= n && is_honest.(party) then begin
      let block_hash = Block.hash b in
      let key = (b.Block.round, block_hash) in
      let c = 1 + Option.value ~default:0 (Hashtbl.find_opt commit_count key) in
      Hashtbl.replace commit_count key c;
      (* Per-party commit: detail-level (the monitor's prefix-consistency
         check and the analyzer consume it), so the digest string is only
         built when a full subscriber is present. *)
      if Icc_sim.Trace.detailed trace then
        Icc_sim.Trace.emit trace ~time:(Icc_sim.Engine.now engine)
          (Icc_sim.Trace.Commit
             {
               party;
               round = b.Block.round;
               block = Icc_crypto.Sha256.short_hex block_hash;
             });
      if c = n_honest then begin
        let nowt = Icc_sim.Engine.now engine in
        (* The metrics sink records the finalization and, when the round's
           proposal time is known, the propose -> all-honest-commit
           latency. *)
        Icc_sim.Trace.emit trace ~time:nowt
          (Icc_sim.Trace.Block_decided
             {
               round = b.Block.round;
               block = Icc_crypto.Sha256.short_hex block_hash;
             });
        List.iter
          (fun c ->
            incr committed_cmds;
            cmd_latencies := (nowt -. c.Types.submitted_at) :: !cmd_latencies)
          b.Block.payload.Types.commands;
        (* Committed commands leave the clients' pending set. *)
        (let committed =
           List.fold_left
             (fun acc c -> Int_set.add c.Types.cmd_id acc)
             Int_set.empty b.Block.payload.Types.commands
         in
         if not (Int_set.is_empty committed) then
           pending :=
             List.filter
               (fun c -> not (Int_set.mem c.Types.cmd_id committed))
               !pending);
        (match scenario.max_rounds with
        | Some r when b.Block.round >= r -> stop_requested := true
        | _ -> ())
      end
    end
  in

  (* Transport and parties are mutually referential (delivery dispatches to
     parties; parties send through the transport): tie the knot with a
     forward reference. *)
  let parties_ref = ref [||] in
  let deliver ~dst msg =
    let parties = !parties_ref in
    if dst >= 1 && dst <= Array.length parties then begin
      Party.on_message parties.(dst - 1) msg;
      if !stop_requested then Icc_sim.Engine.stop engine
    end
  in
  let ctx =
    {
      tr_engine = engine;
      tr_trace = trace;
      tr_n = n;
      tr_t = t;
      tr_rng = Icc_sim.Rng.split rng;
      tr_delay_model = delay_model;
      tr_async_until = scenario.async_until;
      tr_fault = fault;
      tr_adversary = adversary;
      tr_is_active =
        (fun id ->
          (not (Party.behavior (!parties_ref).(id - 1)).Party.crashed)
          &&
          match adversary with
          | None -> true
          | Some a ->
              not
                (Icc_sim.Adversary.crashed_now a
                   ~now:(Icc_sim.Engine.now engine) ~party:id));
      tr_deliver = deliver;
      tr_system = system;
      tr_keys = Array.of_list keys;
    }
  in
  let impl =
    (match scenario.transport with
    | None -> direct_transport
    | Some transport -> transport)
      ctx
  in
  let env =
    {
      Party.config;
      system;
      engine;
      send_broadcast = impl.tx_broadcast;
      send_unicast = impl.tx_unicast;
      trace;
      get_payload;
      on_output;
      adversary;
    }
  in
  let parties =
    Array.init n (fun i ->
        let id = i + 1 in
        Party.create env ~id
          ~keys:(List.nth keys i)
          ~behavior:(behavior_of scenario id))
  in
  parties_ref := parties;
  List.iter
    (fun (id, time) ->
      Icc_sim.Engine.schedule_at engine ~time (fun () ->
          Party.set_behavior parties.(id - 1) Party.crashed))
    scenario.kill_at;
  (* Nemesis crash/recover directives.  Crashing preserves the party's other
     behaviour flags; recovery goes through Party.recover so the party
     rehydrates via resync and rejoins at the current round. *)
  (match scenario.nemesis with
  | None -> ()
  | Some script ->
      List.iter
        (fun (time, what, party) ->
          Icc_sim.Engine.schedule_at engine ~time (fun () ->
              let p = parties.(party - 1) in
              match what with
              | `Crash ->
                  if not (Party.behavior p).Party.crashed then begin
                    Icc_sim.Trace.emit trace
                      ~time:(Icc_sim.Engine.now engine)
                      (Icc_sim.Trace.Fault_crash { party });
                    Party.set_behavior p
                      { (Party.behavior p) with Party.crashed = true }
                  end
              | `Recover ->
                  if (Party.behavior p).Party.crashed then begin
                    Icc_sim.Trace.emit trace
                      ~time:(Icc_sim.Engine.now engine)
                      (Icc_sim.Trace.Fault_recover { party });
                    Party.recover p
                  end))
        (Icc_sim.Fault.crash_schedule script));
  (* Adversary crash windows end on the script's clock: kick the party at
     each window end so it rehydrates (the window silenced its timers). *)
  (match adv_script with
  | None -> ()
  | Some script ->
      List.iter
        (fun (time, party) ->
          Icc_sim.Engine.schedule_at engine ~time (fun () ->
              Party.wake parties.(party - 1)))
        (Icc_sim.Adversary.static_crash_wakes script));
  Array.iter Party.start parties;
  Icc_sim.Engine.run ~until:scenario.duration engine;

  let elapsed = Icc_sim.Engine.now engine in
  (* Profiler snapshot onto the bus, just before run-end.  Gated on the
     profiling toggle, so unprofiled traces carry no prof-* lines and stay
     byte-identical (CI strips these lines and compares the remainder). *)
  if Icc_obs.Profile.enabled () && Icc_sim.Trace.active trace then begin
    let us = Icc_obs.Profile.us in
    List.iter
      (fun st ->
        Icc_sim.Trace.emit trace ~time:elapsed
          (Icc_sim.Trace.Prof_span
             {
               name = st.Icc_obs.Profile.sp_name;
               count = st.Icc_obs.Profile.sp_count;
               total_us = us st.Icc_obs.Profile.sp_total_s;
               self_us = us st.Icc_obs.Profile.sp_self_s;
             }))
      (Icc_obs.Profile.stats ());
    List.iter
      (fun (name, value) ->
        Icc_sim.Trace.emit trace ~time:elapsed
          (Icc_sim.Trace.Prof_counter { name; value }))
      (Icc_obs.Registry.counters ())
  end;
  Icc_sim.Trace.emit trace ~time:elapsed
    (Icc_sim.Trace.Run_end { label = run_label });
  (* Parties the adversary corrupted adaptively during the run leave the
     honest set now — the correctness oracles judge honest parties only. *)
  let honest_ids =
    match adversary with
    | None -> honest_ids
    | Some a ->
        let corrupt = Icc_sim.Adversary.corrupted a in
        List.filter (fun id -> not (List.mem id corrupt)) honest_ids
  in
  let outputs =
    List.map (fun id -> (id, Party.output_chain parties.(id - 1))) honest_ids
  in
  let honest_pools =
    List.map (fun id -> Party.pool parties.(id - 1)) honest_ids
  in
  let rounds_decided =
    match outputs with
    | [] -> 0
    | _ ->
        List.fold_left
          (fun acc (_, chain) ->
            min acc
              (List.fold_left (fun m b -> max m b.Block.round) 0 chain))
          max_int outputs
  in
  let min_finished =
    List.fold_left
      (fun acc id ->
        min acc (Party.rounds_finished parties.(id - 1)))
      max_int honest_ids
  in
  let directly_finalized =
    let limit = if rounds_decided = max_int then 0 else rounds_decided in
    List.filter
      (fun round ->
        List.exists
          (fun pool ->
            List.exists
              (fun b ->
                Pool.is_finalized pool (round, Block.hash b))
              (Pool.blocks_of_round pool round))
          honest_pools)
      (List.init limit (fun i -> i + 1))
  in
  let prefix_ok = Check.outputs_consistent outputs in
  let p2_ok = Check.no_conflicting_notarization honest_pools in
  {
    metrics;
    monitor;
    duration = elapsed;
    outputs;
    safety_ok = prefix_ok && p2_ok;
    prefix_ok;
    p2_ok;
    p1_ok =
      Check.every_round_notarized honest_pools
        ~limit:(if min_finished = max_int then 0 else min_finished);
    rounds_decided;
    directly_finalized;
    blocks_per_s = Icc_sim.Metrics.blocks_per_second metrics ~window:elapsed;
    mean_latency = Icc_sim.Metrics.mean_latency metrics;
    honest = honest_ids;
    commands_committed = !committed_cmds;
    mean_command_latency = Icc_sim.Metrics.mean !cmd_latencies;
  }

(* The run's one-line verdict: the global Check oracles, plus the online
   monitor when one was attached. *)
let verdict r =
  let mark ok = if ok then "\xe2\x9c\x93" else "\xe2\x9c\x97" in
  let monitor_ok =
    match r.monitor with None -> true | Some m -> Icc_sim.Monitor.ok m
  in
  let ok = r.p1_ok && r.p2_ok && r.prefix_ok && monitor_ok in
  ( ok,
    Printf.sprintf "safety: %s (P1 %s P2 %s prefix %s%s)"
      (if ok then "ok" else "VIOLATION")
      (mark r.p1_ok) (mark r.p2_ok) (mark r.prefix_ok)
      (match r.monitor with None -> "" | Some _ -> " monitor " ^ mark monitor_ok)
  )
