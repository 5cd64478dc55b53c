(* Shared scenario/result shapes and the run frame of the baseline
   protocols (PBFT, chained HotStuff, Tendermint), mirroring
   Icc_core.Runner so experiment code can compare the protocols on
   identical workloads and networks. *)

type scenario = {
  n : int;
  t : int;
  seed : int;
  delay : Icc_core.Runner.delay_spec;
  duration : float;
  block_size : int; (* modeled batch payload bytes *)
  crashed : int list;
  kill_at : (int * float) list;
  timeout : float; (* view-change / pacemaker timeout *)
  pipeline_window : int; (* PBFT: batches in flight *)
  trace : Icc_sim.Trace.t option; (* observe the run; None = untraced *)
  monitor : Icc_sim.Monitor.config option; (* online invariant monitor *)
  nemesis : Icc_sim.Fault.script option; (* link faults on the baseline's net *)
  adversary : Icc_sim.Adversary.script option; (* Byzantine strategies *)
}

let default_scenario ~n ~seed =
  {
    n;
    t = Icc_crypto.Keygen.max_corrupt ~n;
    seed;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    duration = 30.;
    block_size = 512;
    crashed = [];
    kill_at = [];
    timeout = 1.0;
    pipeline_window = 1;
    trace = None;
    monitor = None;
    nemesis = None;
    adversary = None;
  }

(* Wire-kind classifier enabling network-level share withholding for the
   baselines: they have no protocol-layer adversary hooks, so a corrupt
   replica's "shares" (votes) are suppressed as they hit the network.  The
   kind strings are disjoint across the three baselines, so one classifier
   serves all.  Equivocation directives are inert here (the baselines'
   proposers are not scriptable); censor/delay/straggle/crash apply as on
   any network. *)
let baseline_classify kind =
  match kind with
  | "prepare" | "hs-vote" | "tm-prevote" -> Some Icc_sim.Adversary.Notar
  | "commit" | "tm-precommit" -> Some Icc_sim.Adversary.Final
  | _ -> None

type result = {
  metrics : Icc_sim.Metrics.t;
  monitor : Icc_sim.Monitor.t option;
  duration : float;
  blocks_committed : int; (* decided by every honest replica *)
  blocks_per_s : float;
  mean_latency : float; (* propose -> all honest executed *)
  safety_ok : bool; (* executed sequences prefix-consistent *)
  outputs : (int * string list) list; (* replica, executed digests in order *)
}

let prefix_consistent outputs =
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> String.equal x y && is_prefix xs ys
  in
  let rec pairs = function
    | [] -> true
    | (_, c1) :: rest ->
        List.for_all
          (fun (_, c2) -> is_prefix c1 c2 || is_prefix c2 c1)
          rest
        && pairs rest
  in
  pairs outputs

(* Commit tracker shared by the baselines: every honest execution is a
   [Commit] at that replica's execution index, and a batch counts as
   decided when every honest replica has executed it. *)
type tracker = {
  n_honest : int;
  trace : Icc_sim.Trace.t;
  counts : (string, int) Hashtbl.t;
  executed : (int, int) Hashtbl.t; (* replica -> batches executed *)
  mutable decided : int;
  mutable latencies : float list;
  propose_times : (string, float) Hashtbl.t;
}

let tracker ~n_honest ~trace =
  {
    n_honest;
    trace;
    counts = Hashtbl.create 256;
    executed = Hashtbl.create 16;
    decided = 0;
    latencies = [];
    propose_times = Hashtbl.create 256;
  }

let note_execution tr ~party ~digest ~time =
  let block =
    if String.length digest > 12 then String.sub digest 0 12 else digest
  in
  let index =
    1 + Option.value ~default:0 (Hashtbl.find_opt tr.executed party)
  in
  Hashtbl.replace tr.executed party index;
  Icc_sim.Trace.emit tr.trace ~time
    (Icc_sim.Trace.Commit { party; round = index; block });
  let c = 1 + Option.value ~default:0 (Hashtbl.find_opt tr.counts digest) in
  Hashtbl.replace tr.counts digest c;
  if c = tr.n_honest then begin
    tr.decided <- tr.decided + 1;
    Icc_sim.Trace.emit tr.trace ~time
      (Icc_sim.Trace.Block_decided { round = tr.decided; block });
    match Hashtbl.find_opt tr.propose_times digest with
    | Some t0 -> tr.latencies <- (time -. t0) :: tr.latencies
    | None -> ()
  end

(* The voters under [key], an empty set on first use. *)
let votes_for tbl key =
  match Hashtbl.find_opt tbl key with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add tbl key h;
      h

(* ------------------------------------------------------------ run frame *)

type live = { mutable crashed : bool; mutable last_progress : float }

let live (scenario : scenario) id =
  { crashed = List.mem id scenario.crashed; last_progress = 0. }

type 'msg frame = {
  scenario : scenario;
  engine : Icc_sim.Engine.t;
  net : 'msg Icc_sim.Network.t;
  tracker : tracker;
  honest : int list;
}

let now t = Icc_sim.Engine.now t.engine

let note_proposal t ~digest =
  let times = t.tracker.propose_times in
  if not (Hashtbl.mem times digest) then Hashtbl.add times digest (now t)

(* Only honest replicas' executions count toward a decision. *)
let note_executed t ~party ~digest =
  if List.mem party t.honest then
    note_execution t.tracker ~party ~digest ~time:(now t)

type ('replica, 'msg) node = {
  label : string;
  replicas :
    scenario ->
    keys:
      (Icc_crypto.Schnorr.secret_key * Icc_crypto.Schnorr.public_key) array ->
    Icc_sim.Rng.t ->
    'replica array;
  live : 'replica -> live;
  on_message : 'msg frame -> 'replica -> 'msg -> unit;
  on_stall : ('msg frame -> 'replica -> unit) option;
  kickoff : 'msg frame -> 'replica array -> unit;
  executed : 'replica -> string list;
}

(* Same-time events keep their sequence numbers: the engine is handed the
   handler, then the [kill_at] schedule, the stall timers, the kickoff. *)
let run node (scenario : scenario) =
  let n = scenario.n in
  let rng = Icc_sim.Rng.create scenario.seed in
  let key_rng = Icc_sim.Rng.split rng in
  let net_rng = Icc_sim.Rng.split rng in
  let keys =
    Array.init n (fun _ ->
        Icc_crypto.Schnorr.keygen (fun () -> Icc_sim.Rng.bits61 key_rng))
  in
  let replicas = node.replicas scenario ~keys key_rng in
  let env = Icc_sim.Transport.env ?trace:scenario.trace ~n () in
  let { Icc_sim.Transport.engine; metrics; trace; _ } = env in
  let attach config = Icc_sim.Monitor.attach ~config trace in
  let monitor = Option.map attach scenario.monitor in
  Icc_sim.Trace.emit trace ~time:0.
    (Icc_sim.Trace.Run_start { n; label = node.label });
  let { Icc_sim.Transport.delay_model; fault; adversary } =
    Icc_sim.Transport.links env ~rng ~net_rng ~classify:baseline_classify
      ~parties:
        [ ("crashed", scenario.crashed);
          ("kill_at", List.map fst scenario.kill_at) ]
      ~nemesis:scenario.nemesis ~adversary:scenario.adversary scenario.delay
  in
  let net =
    Icc_sim.Network.create engine ~n ~trace ~delay_model ?fault ?adversary ()
  in
  (* Crashed, killed and statically corrupt replicas leave the honest set. *)
  let corrupt =
    Option.fold ~none:[] ~some:Icc_sim.Adversary.static_corrupt
      scenario.adversary
  in
  let honest =
    List.init n (fun i -> i + 1)
    |> List.filter (fun id ->
           not
             (List.mem id scenario.crashed
             || List.mem_assoc id scenario.kill_at
             || List.mem id corrupt))
  in
  let tracker = tracker ~n_honest:(List.length honest) ~trace in
  let frame = { scenario; engine; net; tracker; honest } in
  (* A crashed replica drops what it receives. *)
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ msg ->
      let r = replicas.(dst - 1) in
      if not (node.live r).crashed then node.on_message frame r msg);
  List.iter
    (fun (id, time) ->
      Icc_sim.Engine.schedule_at engine ~time (fun () ->
          (node.live replicas.(id - 1)).crashed <- true))
    scenario.kill_at;
  (* The stall timer: from [timeout·(1 + 0.01·id)], every [timeout/2], a
     live replica that has made no progress for [timeout] stalls. *)
  Option.iter
    (fun on_stall ->
      let timeout = scenario.timeout in
      let rec tick r time =
        if time <= scenario.duration then
          Icc_sim.Engine.schedule_at engine ~time (fun () ->
              let live = node.live r in
              let now = Icc_sim.Engine.now engine in
              if (not live.crashed) && now -. live.last_progress > timeout
              then begin
                live.last_progress <- now;
                on_stall frame r
              end;
              tick r (time +. (timeout /. 2.)))
      in
      Array.iteri
        (fun i r -> tick r (timeout *. (1. +. (0.01 *. float_of_int (i + 1)))))
        replicas)
    node.on_stall;
  node.kickoff frame replicas;
  Icc_sim.Engine.run ~until:scenario.duration engine;
  let elapsed = Icc_sim.Engine.now engine in
  Icc_sim.Trace.emit trace ~time:elapsed
    (Icc_sim.Trace.Run_end { label = node.label });
  let outputs =
    List.map (fun id -> (id, node.executed replicas.(id - 1))) honest
  in
  {
    metrics;
    monitor;
    duration = elapsed;
    blocks_committed = tracker.decided;
    blocks_per_s = float_of_int tracker.decided /. elapsed;
    mean_latency = Icc_sim.Metrics.mean tracker.latencies;
    safety_ok = prefix_consistent outputs;
    outputs;
  }
