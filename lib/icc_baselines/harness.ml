(* Shared scenario/result shapes for the baseline protocols (PBFT, chained
   HotStuff), mirroring Icc_core.Runner so experiment code can compare the
   protocols on identical workloads and networks. *)

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

(* Attach the scenario's monitor to a freshly built transport env; called
   by each baseline right after [Transport.env], before any event flows. *)
let attach_monitor scenario (env : Icc_sim.Transport.env) =
  Option.map
    (fun config -> Icc_sim.Monitor.attach ~config env.Icc_sim.Transport.trace)
    scenario.monitor

(* The scenario's id-bearing fields besides its scripts, checked against
   1..n by {!Icc_sim.Transport.links}. *)
let party_ids scenario =
  [ ("crashed", scenario.crashed); ("kill_at", List.map fst scenario.kill_at) ]

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

(* Statically corrupt replicas leave the honest set, like [crashed]. *)
let adversary_corrupt scenario =
  match scenario.adversary with
  | None -> []
  | Some script -> Icc_sim.Adversary.static_corrupt script

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

let note_proposal tr ~digest ~time =
  if not (Hashtbl.mem tr.propose_times digest) then
    Hashtbl.add tr.propose_times digest time

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
