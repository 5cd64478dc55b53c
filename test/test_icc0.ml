(* End-to-end Protocol ICC0 tests: the paper's properties P1 (deadlock
   freeness), P2 (safety) and P3 (liveness), exercised under honest,
   crashed, Byzantine and asynchronous conditions. *)

let base ?(n = 4) ?(seed = 11) () =
  {
    (Icc_core.Runner.default_scenario ~n ~seed) with
    Icc_core.Runner.duration = 20.;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    epsilon = 0.2;
    delta_bnd = 0.3;
  }

let check_invariants ?(min_rounds = 1) name (r : Icc_core.Runner.result) =
  Alcotest.(check bool) (name ^ ": safety (P2 + prefix)") true r.safety_ok;
  Alcotest.(check bool) (name ^ ": P1") true r.p1_ok;
  Alcotest.(check bool)
    (Printf.sprintf "%s: liveness (decided %d >= %d)" name r.rounds_decided
       min_rounds)
    true
    (r.rounds_decided >= min_rounds)

let test_honest_liveness () =
  let r = Icc_core.Runner.run (base ()) in
  check_invariants ~min_rounds:60 "honest" r;
  (* steady state: one round per (epsilon + 2*delta)-ish; all parties agree *)
  List.iter
    (fun (_, chain) ->
      Alcotest.(check int) "equal chains" r.rounds_decided (List.length chain))
    r.outputs

let test_latency_matches_theory () =
  (* honest leader, synchronous: latency = epsilon + 2 * delta (the governor
     epsilon subsumes Delta_ntry(0); dissemination + shares are 2 delta) *)
  let r = Icc_core.Runner.run (base ()) in
  Alcotest.(check bool)
    (Printf.sprintf "latency %.3f in [0.29, 0.32]" r.mean_latency)
    true
    (r.mean_latency > 0.29 && r.mean_latency < 0.32)

let test_one_crashed () =
  let r =
    Icc_core.Runner.run
      { (base ()) with behaviors = [ (2, Icc_core.Party.crashed) ] }
  in
  check_invariants ~min_rounds:40 "one crashed" r

let test_equivocating_leader_safety () =
  List.iter
    (fun seed ->
      let r =
        Icc_core.Runner.run
          {
            (base ~seed ()) with
            adversary = Some [ Icc_sim.Adversary.equivocate ~noisy:true 1 ];
          }
      in
      check_invariants ~min_rounds:30 (Printf.sprintf "equivocator seed %d" seed) r)
    [ 1; 2; 3; 4; 5 ]

let test_equivocator_and_crash_together () =
  let r =
    Icc_core.Runner.run
      {
        (base ~n:7 ()) with
        t_corrupt = 2;
        behaviors = [ (6, Icc_core.Party.crashed) ];
        adversary = Some [ Icc_sim.Adversary.equivocate ~noisy:true 3 ];
      }
  in
  check_invariants ~min_rounds:20 "equivocator+crash" r

let test_stealthy_equivocator () =
  (* the strongest liveness attack: splits honest shares and withholds its
     own, so its rounds decide only in a later round — still safe, and the
     directly-finalized fraction reflects the 1/n leader probability *)
  let r =
    Icc_core.Runner.run
      {
        (base ()) with
        adversary =
          Some
            [
              Icc_sim.Adversary.equivocate 2;
              Icc_sim.Adversary.withhold ~notar:true ~final:true 2;
            ];
      }
  in
  check_invariants ~min_rounds:40 "stealthy" r;
  let direct = List.length r.directly_finalized in
  Alcotest.(check bool)
    (Printf.sprintf "some rounds decided late (%d/%d direct)" direct
       r.rounds_decided)
    true
    (direct < r.rounds_decided)

let test_lazy_participant () =
  (* consistent failure: never proposes but otherwise follows the protocol *)
  let r =
    Icc_core.Runner.run
      { (base ()) with behaviors = [ (4, Icc_core.Party.lazy_participant) ] }
  in
  check_invariants ~min_rounds:50 "lazy" r

let test_asynchronous_start_recovers () =
  (* the network is adversarially asynchronous for 8 of 20 seconds; the
     protocol must commit the backlog once synchrony returns (P1) *)
  let r = Icc_core.Runner.run { (base ()) with async_until = 8. } in
  check_invariants ~min_rounds:30 "async start" r

let test_mid_run_crash_degrades_gracefully () =
  let r = Icc_core.Runner.run { (base ()) with kill_at = [ (1, 10.) ] } in
  check_invariants ~min_rounds:30 "mid-run crash" r

let test_optimistic_responsiveness () =
  (* delta much smaller than delta_bnd: round time must track delta, not
     delta_bnd.  The non-responsive variant (Tendermint-style) must not. *)
  let fast =
    {
      (base ()) with
      delay = Icc_core.Runner.Fixed_delay 0.005;
      delta_bnd = 1.0;
      epsilon = 0.01;
    }
  in
  let responsive = Icc_core.Runner.run fast in
  let non_responsive =
    Icc_core.Runner.run { fast with non_responsive = true }
  in
  Alcotest.(check bool)
    (Printf.sprintf "responsive fast (%d rounds)" responsive.rounds_decided)
    true
    (responsive.rounds_decided > 300);
  Alcotest.(check bool)
    (Printf.sprintf "non-responsive slow (%d rounds)"
       non_responsive.rounds_decided)
    true
    (non_responsive.rounds_decided < responsive.rounds_decided / 5)

let test_commands_committed_exactly_once () =
  let r =
    Icc_core.Runner.run
      {
        (base ()) with
        workload = Icc_core.Runner.Load { rate_per_s = 40.; cmd_size = 256 };
      }
  in
  check_invariants ~min_rounds:50 "load" r;
  Alcotest.(check bool)
    (Printf.sprintf "most commands committed (%d)" r.commands_committed)
    true
    (r.commands_committed > 600);
  (* no duplicates on any honest chain (getPayload deduplication) *)
  List.iter
    (fun (_, chain) ->
      let ids =
        List.concat_map
          (fun (b : Icc_core.Block.t) ->
            List.map
              (fun c -> c.Icc_core.Types.cmd_id)
              b.Icc_core.Block.payload.Icc_core.Types.commands)
          chain
      in
      Alcotest.(check int) "no duplicate commands" (List.length ids)
        (List.length (List.sort_uniq compare ids)))
    r.outputs

let test_wan_delays () =
  let r =
    Icc_core.Runner.run
      {
        (base ~n:13 ~seed:21 ()) with
        t_corrupt = 4;
        delay = Icc_core.Runner.Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
        delta_bnd = 1.0;
        epsilon = 0.3;
      }
  in
  check_invariants ~min_rounds:20 "wan n=13" r

let test_max_rounds_stops_early () =
  let r =
    Icc_core.Runner.run
      { (base ()) with duration = 1_000.; max_rounds = Some 10 }
  in
  Alcotest.(check bool) "stopped early" true (r.duration < 100.);
  Alcotest.(check bool) "reached target" true (r.rounds_decided >= 10)

let test_determinism () =
  let r1 = Icc_core.Runner.run (base ~seed:99 ())
  and r2 = Icc_core.Runner.run (base ~seed:99 ()) in
  Alcotest.(check int) "same rounds" r1.rounds_decided r2.rounds_decided;
  Alcotest.(check (float 1e-12)) "same latency" r1.mean_latency r2.mean_latency;
  Alcotest.(check int) "same traffic"
    (Icc_sim.Metrics.total_bytes r1.metrics)
    (Icc_sim.Metrics.total_bytes r2.metrics)

let test_message_complexity_synchronous () =
  (* synchronous, honest: expected O(n^2) messages per round — in fact about
     c*n^2 for a small c (beacon + shares + notarization + finalization) *)
  let r = Icc_core.Runner.run { (base ~n:7 ()) with t_corrupt = 2 } in
  let msgs = Icc_sim.Metrics.total_msgs r.metrics in
  let rounds = r.rounds_decided in
  let per_round = float_of_int msgs /. float_of_int rounds in
  let n2 = 49. in
  Alcotest.(check bool)
    (Printf.sprintf "per-round msgs %.0f within [n^2, 8 n^2]" per_round)
    true
    (per_round >= n2 && per_round <= 8. *. n2)

(* --- a party's own signatures ------------------------------------------

   A lone party hears only its own broadcasts, so everything it admits is
   a value it signed itself: it verifies no signature at all.  Handing the
   same bytes back as a fresh value, as a peer's copy would be, restores a
   check for each: the party vouches by identity, never by bytes or signer
   id. *)

let solo () =
  {
    (Icc_core.Runner.default_scenario ~n:1 ~seed:1) with
    Icc_core.Runner.duration = 20.;
    workload = Icc_core.Runner.Load { rate_per_s = 2000.; cmd_size = 1024 };
  }

(* Counter deltas over one run. *)
let counted f =
  let snap () = Icc_crypto.Counters.snapshot () in
  let before = snap () in
  let r = f () in
  let after = snap () in
  let delta name = List.assoc name after - List.assoc name before in
  (r, delta)

let test_lone_party_verifies_nothing_it_signed () =
  let r, delta = counted (fun () -> Icc_core.Runner.run (solo ())) in
  check_invariants ~min_rounds:50 "solo" r;
  Alcotest.(check bool) "it signed" true (delta "schnorr_signs" > 0);
  Alcotest.(check int) "schnorr_verifies" 0 (delta "schnorr_verifies");
  Alcotest.(check int) "dleq_verifies" 0 (delta "dleq_verifies")

(* Every broadcast's self-copy is a byte-equal copy, never the value the
   party produced. *)
let copying_transport : Icc_core.Runner.transport =
 fun ctx ->
  let inner = Icc_core.Runner.direct_transport ctx in
  let copy (msg : Icc_core.Message.t) : Icc_core.Message.t =
    match msg with
    | Proposal p -> Proposal { p with p_block = p.p_block }
    | Notarization_share s -> Notarization_share { s with s_round = s.s_round }
    | Finalization_share s -> Finalization_share { s with s_round = s.s_round }
    | Beacon_share b -> Beacon_share { b with b_round = b.b_round }
    | (Notarization _ | Finalization _ | Pool_summary _ | Pool_request _) as m
      ->
        m
  in
  {
    inner with
    Icc_core.Runner.tx_broadcast =
      (fun ~src msg -> inner.Icc_core.Runner.tx_broadcast ~src (copy msg));
  }

let test_copy_of_own_value_verified () =
  let own, own_delta = counted (fun () -> Icc_core.Runner.run (solo ())) in
  let r, delta =
    counted (fun () ->
        Icc_core.Runner.run
          { (solo ()) with Icc_core.Runner.transport = Some copying_transport })
  in
  check_invariants ~min_rounds:50 "solo, copied" r;
  Alcotest.(check int) "same rounds as the uncopied run" own.rounds_decided
    r.rounds_decided;
  Alcotest.(check int) "same signatures made" (own_delta "schnorr_signs")
    (delta "schnorr_signs");
  Alcotest.(check int) "every signature verified once" (delta "schnorr_signs")
    (delta "schnorr_verifies");
  Alcotest.(check bool) "beacon shares verified" true (delta "dleq_verifies" > 0)

let prop_safety_under_random_adversaries =
  QCheck.Test.make ~name:"icc0 safety under random adversary mixes" ~count:8
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Icc_sim.Rng.create seed in
      let n = 4 + Icc_sim.Rng.int rng 4 in
      let t = Icc_crypto.Keygen.max_corrupt ~n in
      let corrupt =
        List.filteri (fun i _ -> i < t)
          (List.sort_uniq compare
             (List.init t (fun _ -> 1 + Icc_sim.Rng.int rng n)))
      in
      let behaviors, directives =
        List.fold_left
          (fun (bs, ds) id ->
            if Icc_sim.Rng.bool rng then ((id, Icc_core.Party.crashed) :: bs, ds)
            else (bs, Icc_sim.Adversary.equivocate ~noisy:true id :: ds))
          ([], []) corrupt
      in
      let r =
        Icc_core.Runner.run
          {
            (base ~n ~seed ()) with
            t_corrupt = t;
            behaviors;
            adversary = (match directives with [] -> None | ds -> Some ds);
            duration = 10.;
          }
      in
      r.safety_ok && r.p1_ok)

let suite =
  [
    Alcotest.test_case "honest liveness" `Quick test_honest_liveness;
    Alcotest.test_case "latency theory" `Quick test_latency_matches_theory;
    Alcotest.test_case "one crashed" `Quick test_one_crashed;
    Alcotest.test_case "equivocating leader" `Quick test_equivocating_leader_safety;
    Alcotest.test_case "equivocator + crash" `Quick test_equivocator_and_crash_together;
    Alcotest.test_case "stealthy equivocator" `Quick test_stealthy_equivocator;
    Alcotest.test_case "lazy participant" `Quick test_lazy_participant;
    Alcotest.test_case "async start recovers" `Quick test_asynchronous_start_recovers;
    Alcotest.test_case "mid-run crash" `Quick test_mid_run_crash_degrades_gracefully;
    Alcotest.test_case "optimistic responsiveness" `Quick test_optimistic_responsiveness;
    Alcotest.test_case "commands exactly once" `Quick test_commands_committed_exactly_once;
    Alcotest.test_case "wan delays" `Quick test_wan_delays;
    Alcotest.test_case "max rounds stop" `Quick test_max_rounds_stops_early;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "message complexity" `Quick test_message_complexity_synchronous;
    Alcotest.test_case "lone party verifies nothing it signed" `Quick
      test_lone_party_verifies_nothing_it_signed;
    Alcotest.test_case "copy of own value verified" `Quick
      test_copy_of_own_value_verified;
    QCheck_alcotest.to_alcotest prop_safety_under_random_adversaries;
  ]
