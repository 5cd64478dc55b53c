(* Nemesis-layer tests.

   - a QCheck property: ICC0 stays safe and live (and the online monitor
     stays clean) under random drop (<= 20%) / duplication / reordering
     schedules;
   - trace determinism: the same seed and nemesis script produce a
     byte-identical trace JSONL across two runs, for ICC0, ICC1 and ICC2;
   - the combined acceptance schedule from the issue: 20% drop +
     duplication + a healed two-way partition + crash-recover of f
     parties, with every party (including the recovered ones) committing
     the full chain;
   - loss in the first second only: resync heals a split round 1. *)

let base ?(n = 4) ~seed ~duration () =
  {
    (Icc_core.Runner.default_scenario ~n ~seed) with
    Icc_core.Runner.duration;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    epsilon = 0.2;
    delta_bnd = 0.5;
  }

let monitored (scenario : Icc_core.Runner.scenario) =
  {
    scenario with
    Icc_core.Runner.monitor = Some (Icc_sim.Monitor.default_config ~delta:0.05 ())
  }

let monitor_ok (r : Icc_core.Runner.result) =
  match r.Icc_core.Runner.monitor with
  | Some m -> Icc_sim.Monitor.ok m
  | None -> false

(* ------------------------------------------- random fault schedules *)

(* A schedule is a short list of rule specs drawn from small integers so
   QCheck can shrink a failing case to a minimal schedule.  [kind] picks
   the action, [permille] caps drop probability at 200/1000 = 20%, and the
   window [w0, w0 + w1 + 1) lies inside the 15 s run. *)
let script_of_specs specs =
  List.map
    (fun (kind, permille, w0, w1) ->
      let from_ = float_of_int w0 and until = float_of_int (w0 + w1 + 1) in
      let p = float_of_int permille /. 1000. in
      match kind mod 3 with
      | 0 -> Icc_sim.Fault.drop ~from_ ~until p
      | 1 -> Icc_sim.Fault.duplicate ~from_ ~until ~spread:0.05 (p *. 2.)
      | _ -> Icc_sim.Fault.reorder ~from_ ~until ~max_extra:0.2 (p *. 2.))
    specs

let prop_icc0_safe_under_random_schedules =
  let spec_gen =
    QCheck.Gen.(
      quad (int_bound 2) (int_bound 200) (int_bound 9) (int_bound 5))
  in
  let gen = QCheck.Gen.(pair (int_bound 1000) (list_size (int_range 1 3) spec_gen)) in
  let print (seed, specs) =
    Printf.sprintf "seed=%d specs=[%s]" seed
      (String.concat "; "
         (List.map
            (fun (k, p, w0, w1) -> Printf.sprintf "(%d,%d,%d,%d)" k p w0 w1)
            specs))
  in
  QCheck.Test.make
    ~name:"icc0 safe and live under random drop/dup/reorder schedules"
    ~count:10
    (QCheck.make ~print gen)
    (fun (seed, specs) ->
      let scenario =
        monitored
          { (base ~seed ~duration:15. ()) with
            Icc_core.Runner.nemesis = Some (script_of_specs specs) }
      in
      let r = Icc_core.Runner.run scenario in
      r.Icc_core.Runner.safety_ok && r.Icc_core.Runner.p1_ok
      && monitor_ok r
      && r.Icc_core.Runner.rounds_decided >= 10)

(* --------------------------- random adversary x nemesis compositions *)

(* Random adversary scripts, all targeting party 2 so the corrupt count
   stays at f = 1 = t for n = 4.  The spec tuple mirrors the nemesis one
   so QCheck shrinks both the same way. *)
let adv_script_of_specs specs =
  List.map
    (fun (kind, permille, w0, w1) ->
      let from_ = float_of_int w0 and until = float_of_int (w0 + w1 + 1) in
      let p = float_of_int permille /. 1000. in
      match kind mod 8 with
      | 0 -> Icc_sim.Adversary.equivocate ~noisy:true 2
      | 1 -> Icc_sim.Adversary.equivocate 2
      | 2 -> Icc_sim.Adversary.withhold ~p 2
      | 3 ->
          Icc_sim.Adversary.withhold ~notar:true ~final:true ~p ~from_ ~until 2
      | 4 -> Icc_sim.Adversary.censor ~dsts:[ 1 + (w1 mod 4) ] ~from_ ~until 2
      | 5 -> Icc_sim.Adversary.delay ~by:0.3 ~from_ ~until 2
      | 6 -> Icc_sim.Adversary.crash_window ~from_ ~until 2
      | _ -> Icc_sim.Adversary.straggle ~p:(p *. 0.8) ~from_ ~until 2)
    specs

(* Run a scenario with a trace sink, returning the result and JSONL dump. *)
let jsonl_run scenario =
  let tr = Icc_sim.Trace.create () in
  let buf = Buffer.create (1 lsl 16) in
  Icc_sim.Trace.subscribe ~all:true tr (fun ~time ev ->
      Buffer.add_string buf (Icc_sim.Trace.to_json ~time ev);
      Buffer.add_char buf '\n');
  let r = Icc_core.Runner.run { scenario with Icc_core.Runner.trace = Some tr } in
  (r, Buffer.contents buf)

let prop_safe_under_random_adversary_and_nemesis =
  let spec_gen =
    QCheck.Gen.(
      quad (int_bound 7) (int_bound 1000) (int_bound 9) (int_bound 5))
  in
  let gen =
    QCheck.Gen.(
      triple (int_bound 1000)
        (list_size (int_range 1 3) spec_gen)
        (list_size (int_range 0 2)
           (quad (int_bound 2) (int_bound 200) (int_bound 9) (int_bound 5))))
  in
  let print (seed, advs, nems) =
    let specs l =
      String.concat "; "
        (List.map
           (fun (k, p, w0, w1) -> Printf.sprintf "(%d,%d,%d,%d)" k p w0 w1)
           l)
    in
    Printf.sprintf "seed=%d adv=[%s] nemesis=[%s]" seed (specs advs) (specs nems)
  in
  QCheck.Test.make
    ~name:
      "icc0 safe under random adversary scripts x nemesis schedules (f <= t), \
       traces byte-identical across re-runs"
    ~count:8
    (QCheck.make ~print gen)
    (fun (seed, adv_specs, nem_specs) ->
      let scenario =
        monitored
          {
            (base ~seed ~duration:15. ()) with
            Icc_core.Runner.nemesis =
              (match nem_specs with
              | [] -> None
              | s -> Some (script_of_specs s));
            adversary = Some (adv_script_of_specs adv_specs);
          }
      in
      let r1, jsonl1 = jsonl_run scenario in
      let _r2, jsonl2 = jsonl_run scenario in
      r1.Icc_core.Runner.safety_ok && r1.Icc_core.Runner.p1_ok
      && monitor_ok r1
      && r1.Icc_core.Runner.rounds_decided >= 8
      && String.length jsonl1 > 10_000
      && String.equal jsonl1 jsonl2)

let test_disabled_adversary_is_invisible () =
  (* [adversary = Some []] must not split the RNG or perturb anything:
     the trace is byte-identical to [adversary = None] — the layer is
     invisible until configured. *)
  let scenario = monitored (base ~seed:91 ~duration:10. ()) in
  let _, j_none =
    jsonl_run { scenario with Icc_core.Runner.adversary = None }
  in
  let _, j_empty =
    jsonl_run { scenario with Icc_core.Runner.adversary = Some [] }
  in
  Alcotest.(check bool) "trace non-empty" true (String.length j_none > 10_000);
  Alcotest.(check bool) "None and Some [] byte-identical" true
    (String.equal j_none j_empty)

(* ------------------------------------------- combined acceptance schedule *)

(* 20% loss + duplication over the middle of the run, a healed two-way
   partition, and a crash-recover cycle of f = t parties.  n = 4, t = 1:
   party 2 crashes at 6 s and recovers at 12 s. *)
let combined_script =
  Icc_sim.Fault.drop ~from_:4. ~until:14. 0.2
  :: Icc_sim.Fault.duplicate ~from_:4. ~until:14. 0.3
  :: Icc_sim.Fault.partition ~from_:9. ~until:11. [ [ 1; 3 ]; [ 4 ] ]
  :: Icc_sim.Fault.crash_recover ~party:2 ~down:6. ~up:12.

let combined_scenario ~seed =
  monitored
    { (base ~seed ~duration:25. ()) with
      Icc_core.Runner.nemesis = Some combined_script }

let check_combined name (r : Icc_core.Runner.result) =
  Alcotest.(check bool) (name ^ ": safety ok") true r.Icc_core.Runner.safety_ok;
  Alcotest.(check bool) (name ^ ": p1 ok") true r.Icc_core.Runner.p1_ok;
  Alcotest.(check bool) (name ^ ": monitor clean") true (monitor_ok r);
  Alcotest.(check bool)
    (Printf.sprintf "%s: liveness (%d rounds)" name
       r.Icc_core.Runner.rounds_decided)
    true
    (r.Icc_core.Runner.rounds_decided >= 20);
  (* the crash-recovered party stays in the honest set and commits the
     same chain as everyone else *)
  Alcotest.(check int) (name ^ ": all parties honest") 4
    (List.length r.Icc_core.Runner.outputs);
  match r.Icc_core.Runner.outputs with
  | (_, reference) :: rest ->
      List.iter
        (fun (id, chain) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: party %d chain identical" name id)
            true (chain = reference))
        rest
  | [] -> Alcotest.fail (name ^ ": no outputs")

(* Run a protocol over the combined schedule with a trace sink, returning
   the result and the full JSONL dump. *)
let traced_run run_fn ~seed =
  let tr = Icc_sim.Trace.create () in
  let buf = Buffer.create (1 lsl 16) in
  Icc_sim.Trace.subscribe tr (fun ~time ev ->
      Buffer.add_string buf (Icc_sim.Trace.to_json ~time ev);
      Buffer.add_char buf '\n');
  let r = run_fn { (combined_scenario ~seed) with Icc_core.Runner.trace = Some tr } in
  (r, Buffer.contents buf)

let check_deterministic_combined name run_fn ~seed =
  let r1, jsonl1 = traced_run run_fn ~seed in
  let _r2, jsonl2 = traced_run run_fn ~seed in
  check_combined name r1;
  Alcotest.(check bool) (name ^ ": trace non-empty") true
    (String.length jsonl1 > 10_000);
  Alcotest.(check bool)
    (name ^ ": byte-identical trace JSONL across two runs")
    true
    (String.equal jsonl1 jsonl2);
  (* the nemesis visibly did something: fault events are on the bus *)
  Alcotest.(check bool) (name ^ ": fault events present") true
    (let contains sub =
       let n = String.length jsonl1 and m = String.length sub in
       let rec go i = i + m <= n && (String.sub jsonl1 i m = sub || go (i + 1)) in
       go 0
     in
     contains {|"ev":"fault-drop"|} && contains {|"ev":"fault-crash"|}
     && contains {|"ev":"fault-recover"|})

let test_determinism_icc0 () =
  check_deterministic_combined "icc0" Icc_core.Runner.run ~seed:41

let test_determinism_icc1 () =
  check_deterministic_combined "icc1" Icc_gossip.Icc1.run ~seed:42

let test_determinism_icc2 () =
  check_deterministic_combined "icc2" Icc_rbc.Icc2.run ~seed:43

(* ------------------------------------------- resync heals a partition *)

let test_partition_heals_without_crash () =
  (* a pure two-way partition with no crash: both sides stall (no quorum
     on either side with n=4, t=1), heal, and the resync retransmission
     gets everyone back to one chain *)
  let script =
    [ Icc_sim.Fault.partition ~from_:5. ~until:8. [ [ 1; 2 ]; [ 3; 4 ] ] ]
  in
  let r =
    Icc_core.Runner.run
      (monitored
         { (base ~seed:57 ~duration:20. ()) with
           Icc_core.Runner.nemesis = Some script })
  in
  Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
  Alcotest.(check bool) "monitor" true (monitor_ok r);
  Alcotest.(check bool)
    (Printf.sprintf "liveness resumes after healing (%d rounds)"
       r.Icc_core.Runner.rounds_decided)
    true
    (r.Icc_core.Runner.rounds_decided >= 30)

(* ------------------------------------- resync after early-round loss *)

(* Loss only in the first second can split round 1: two parties
   share-notarize one proposal, the other two a higher-ranked one, and
   neither reaches a quorum.  Resync must then resend every round-1
   proposal a peer holds, not just its two newest, or the split never
   heals.  Seeds 2 and 38 are two such splits. *)
let test_early_loss_recovers seed () =
  let r =
    Icc_core.Runner.run
      { (base ~seed ~duration:15. ()) with
        Icc_core.Runner.nemesis =
          Some [ Icc_sim.Fault.drop ~from_:0. ~until:1. 0.199 ];
        monitor = Some (Icc_sim.Monitor.default_config ~delta:0.5 ()) }
  in
  Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
  Alcotest.(check bool)
    (Printf.sprintf "decides (%d rounds)" r.Icc_core.Runner.rounds_decided)
    true
    (r.Icc_core.Runner.rounds_decided >= 1);
  match r.Icc_core.Runner.monitor with
  | Some m ->
      Alcotest.(check (list int)) "no unrecovered stall" []
        (Icc_sim.Monitor.stalled_rounds m)
  | None -> Alcotest.fail "monitor missing"

(* ------------------------------------------------ party-id validation *)

(* A scenario naming a party outside 1..n is rejected before the run,
   with the offending directive and field named; [expect] is the start of
   the message. *)
let rejects_id field ~expect run =
  Alcotest.test_case ("rejects out-of-range " ^ field) `Quick (fun () ->
      match run () with
      | _ -> Alcotest.failf "%s: out-of-range id accepted" field
      | exception Invalid_argument msg ->
          Alcotest.(check string) "names the directive" expect
            (String.sub msg 0 (min (String.length msg) (String.length expect))))

let icc_with f () = Icc_core.Runner.run (f (base ~seed:1 ~duration:1. ()))

let id_range_cases =
  let open Icc_core.Runner in
  let module F = Icc_sim.Fault in
  let module A = Icc_sim.Adversary in
  [
    rejects_id "party" ~expect:"nemesis crash party: 9 "
      (icc_with (fun s ->
           { s with nemesis = Some [ F.Crash { party = 9; at = 0.5 } ] }));
    rejects_id "adversary party" ~expect:"adversary withhold party: 0 "
      (icc_with (fun s -> { s with adversary = Some [ A.withhold 0 ] }));
    rejects_id "src" ~expect:"nemesis drop src: 5 "
      (icc_with (fun s -> { s with nemesis = Some [ F.drop ~src:5 0.1 ] }));
    rejects_id "dst" ~expect:"nemesis dup dst: 0 "
      (icc_with (fun s ->
           { s with nemesis = Some [ F.duplicate ~dst:0 0.1 ] }));
    rejects_id "groups" ~expect:"nemesis partition groups: 99 "
      (icc_with (fun s ->
           { s with
             nemesis =
               Some [ F.partition ~from_:0. ~until:1. [ [ 1; 2 ]; [ 3; 99 ] ] ]
           }));
    rejects_id "dsts" ~expect:"adversary censor dsts: 12 "
      (icc_with (fun s ->
           { s with adversary = Some [ A.censor ~dsts:[ 1; 12 ] 2 ] }));
    rejects_id "behaviors" ~expect:"behaviors: 9 "
      (icc_with (fun s ->
           { s with behaviors = [ (9, Icc_core.Party.crashed) ] }));
    rejects_id "kill_at" ~expect:"kill_at: 5 "
      (icc_with (fun s -> { s with kill_at = [ (5, 0.5) ] }));
    rejects_id "crashed (baselines)" ~expect:"crashed: 8 " (fun () ->
        Icc_baselines.Pbft.run
          { (Icc_baselines.Harness.default_scenario ~n:4 ~seed:1) with
            Icc_baselines.Harness.duration = 1.;
            crashed = [ 8 ] });
  ]

let test_json_rejects_fractional_ids () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (Result.is_error (Icc_sim.Fault.script_of_json s)))
    [
      {|[{"fault":"crash","party":2.7,"at":1}]|};
      {|[{"fault":"drop","p":0.1,"src":1.5}]|};
      {|[{"fault":"partition","from":0,"until":1,"groups":[[1],[2.5]]}]|};
    ];
  Alcotest.(check bool) "integral floats still parse" true
    (Icc_sim.Fault.script_of_json {|[{"fault":"crash","party":2.0,"at":1}]|}
    = Ok [ Icc_sim.Fault.Crash { party = 2; at = 1. } ])

let suite =
  id_range_cases
  @ [
    Alcotest.test_case "json rejects fractional ids" `Quick
      test_json_rejects_fractional_ids;
    QCheck_alcotest.to_alcotest prop_icc0_safe_under_random_schedules;
    QCheck_alcotest.to_alcotest prop_safe_under_random_adversary_and_nemesis;
    Alcotest.test_case "adversary disabled is invisible" `Quick
      test_disabled_adversary_is_invisible;
    Alcotest.test_case "icc0: combined schedule, deterministic trace" `Quick
      test_determinism_icc0;
    Alcotest.test_case "icc1: combined schedule, deterministic trace" `Quick
      test_determinism_icc1;
    Alcotest.test_case "icc2: combined schedule, deterministic trace" `Quick
      test_determinism_icc2;
    Alcotest.test_case "partition heals via resync" `Quick
      test_partition_heals_without_crash;
    Alcotest.test_case "early loss recovers via resync (seed 2)" `Quick
      (test_early_loss_recovers 2);
    Alcotest.test_case "early loss recovers via resync (seed 38)" `Quick
      (test_early_loss_recovers 38);
  ]
