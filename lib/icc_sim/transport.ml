(* The shared instrumented transport substrate.

   Every run — ICC0/1/2 through Icc_core.Runner, and each baseline through
   Icc_baselines.Harness — used to wire its own engine + metrics + network
   by hand, each slightly differently.  This module is the one constructor
   they all go through now, so every protocol runs on the same observable
   substrate: one trace bus, one metrics consumer attached to it, and one
   builder for the delay model, nemesis and adversary of a run's links. *)

type env = {
  engine : Engine.t;
  trace : Trace.t;
  metrics : Metrics.t;
  n : int;
}

let env ?trace ~n () =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let metrics = Metrics.create n in
  Metrics.attach metrics trace;
  let engine = Engine.create () in
  (* Engine dispatch is the noisiest layer; only observe it when someone is
     listening for detail events. *)
  if Trace.detailed trace then
    Engine.set_observer engine (fun ~time ~seq ->
        Trace.emit trace ~time (Trace.Engine_dispatch { seq }));
  { engine; trace; metrics; n }

type delay_spec =
  | Fixed_delay of float
  | Uniform_delay of float * float
  | Wan of { rtt_lo : float; rtt_hi : float } (* paper: RTT 6–110 ms *)

type links = {
  delay_model : Network.delay_model;
  fault : Fault.t option;
  adversary : Adversary.t option;
}

let check_ids ~n what ids =
  List.iter
    (fun id ->
      if id < 1 || id > n then
        invalid_arg
          (Printf.sprintf "%s: %d is not a party id in 1..%d" what id n))
    ids

let check_fault ~n (d : Fault.directive) =
  match d with
  | Rule { src; dst; action; _ } ->
      let name =
        match action with
        | Drop _ -> "drop"
        | Duplicate _ -> "dup"
        | Reorder _ -> "reorder"
        | Flap _ -> "flap"
      in
      check_ids ~n ("nemesis " ^ name ^ " src") (Option.to_list src);
      check_ids ~n ("nemesis " ^ name ^ " dst") (Option.to_list dst)
  | Partition { groups; _ } ->
      check_ids ~n "nemesis partition groups" (List.concat groups)
  | Crash { party; _ } -> check_ids ~n "nemesis crash party" [ party ]
  | Recover { party; _ } -> check_ids ~n "nemesis recover party" [ party ]

let check_adversary ~n (d : Adversary.directive) =
  let name = Adversary.strategy_name d.action in
  (match d.who with
  | Party p -> check_ids ~n ("adversary " ^ name ^ " party") [ p ]
  | Any -> ());
  match d.action with
  | Censor { dsts } -> check_ids ~n ("adversary " ^ name ^ " dsts") dsts
  | Equivocate _ | Withhold _ | Delay _ | Crash_window | Straggle _ -> ()

(* The fault and adversary layers each own a private stream, split from the
   root only when their script is present (non-empty, for the adversary),
   so runs without them keep their exact historical streams. *)
let links e ~rng ~net_rng ?classify ~parties ~nemesis ~adversary delay =
  let n = e.n in
  List.iter (fun (what, ids) -> check_ids ~n what ids) parties;
  Option.iter (List.iter (check_fault ~n)) nemesis;
  Option.iter (List.iter (check_adversary ~n)) adversary;
  let delay_model : Network.delay_model =
    match delay with
    | Fixed_delay d -> Fixed d
    | Uniform_delay (lo, hi) -> Uniform { rng = net_rng; lo; hi }
    | Wan { rtt_lo; rtt_hi } ->
        Matrix (Network.wan_matrix net_rng ~n ~rtt_lo ~rtt_hi)
  in
  let fault =
    Option.map
      (fun script -> Fault.create ~rng:(Rng.split rng) ~trace:e.trace script)
      nemesis
  in
  let adversary =
    match adversary with
    | None | Some [] -> None
    | Some script ->
        Some
          (Adversary.create ~rng:(Rng.split rng) ~trace:e.trace ~n ?classify
             script)
  in
  { delay_model; fault; adversary }
