(* Online invariant monitor: synthetic event streams pin each detection
   (kind, fatality, event index), live runs exercise the Byzantine
   double-notarization path and the liveness watchdog end to end. *)

let config ?(stall_factor = 8.) ?abort () =
  Icc_sim.Monitor.default_config ~stall_factor ?abort_on_violation:abort
    ~delta:0.02 ()

(* Feed a synthetic stream to a detached monitor, one second per event. *)
let feed ?(n = 4) events =
  let m = Icc_sim.Monitor.create (config ()) in
  Icc_sim.Monitor.observe m ~time:0.
    (Icc_sim.Trace.Run_start { n; label = "synthetic" });
  List.iteri
    (fun i ev -> Icc_sim.Monitor.observe m ~time:(float_of_int (i + 1)) ev)
    events;
  m

let whats l = List.map (fun v -> v.Icc_sim.Monitor.v_what) l

let test_clean_stream () =
  let m =
    feed
      [
        Icc_sim.Trace.Round_entry { party = 1; round = 1 };
        Propose { party = 1; round = 1 };
        Notarize { party = 2; round = 1; block = "aa" };
        Finalize { party = 2; round = 1; block = "aa" };
        Commit { party = 1; round = 1; block = "aa" };
        Commit { party = 2; round = 1; block = "aa" };
        Block_decided { round = 1; block = "aa" };
      ]
  in
  Alcotest.(check bool) "ok" true (Icc_sim.Monitor.ok m);
  Alcotest.(check int) "no violations" 0
    (List.length (Icc_sim.Monitor.violations m));
  Alcotest.(check int) "events counted" 8 (Icc_sim.Monitor.events_seen m)

(* P2: a notarization for a different digest than the round's finalization,
   in either arrival order, is fatal — with the index of the offending
   event. *)
let test_p2_finalize_then_notarize () =
  let m =
    feed
      [
        Icc_sim.Trace.Finalize { party = 1; round = 3; block = "aa" };
        Notarize { party = 2; round = 3; block = "bb" };
      ]
  in
  Alcotest.(check bool) "fatal" false (Icc_sim.Monitor.ok m);
  match Icc_sim.Monitor.fatal_violations m with
  | [ v ] ->
      Alcotest.(check string) "what" "conflicting-notarization"
        v.Icc_sim.Monitor.v_what;
      Alcotest.(check int) "round" 3 v.Icc_sim.Monitor.v_round;
      (* Run_start is event 0; the offending Notarize is event 2. *)
      Alcotest.(check int) "index points at the notarize" 2
        v.Icc_sim.Monitor.v_index
  | l -> Alcotest.failf "expected one fatal violation, got %d" (List.length l)

let test_p2_notarize_then_finalize () =
  let m =
    feed
      [
        Icc_sim.Trace.Notarize { party = 2; round = 3; block = "bb" };
        Finalize { party = 1; round = 3; block = "aa" };
      ]
  in
  Alcotest.(check (list string)) "caught at the finalize"
    [ "conflicting-notarization" ]
    (whats (Icc_sim.Monitor.fatal_violations m))

let test_conflicting_finalization () =
  let m =
    feed
      [
        Icc_sim.Trace.Finalize { party = 1; round = 2; block = "aa" };
        Finalize { party = 2; round = 2; block = "bb" };
      ]
  in
  (* the second digest also conflicts with the first notarization-wise *)
  Alcotest.(check bool) "fatal" false (Icc_sim.Monitor.ok m);
  Alcotest.(check bool) "conflicting-finalization reported" true
    (List.mem "conflicting-finalization"
       (whats (Icc_sim.Monitor.fatal_violations m)))

let test_fork_on_commit () =
  let m =
    feed
      [
        Icc_sim.Trace.Commit { party = 1; round = 1; block = "aa" };
        Commit { party = 2; round = 1; block = "bb" };
      ]
  in
  Alcotest.(check (list string)) "fork" [ "fork" ]
    (whats (Icc_sim.Monitor.fatal_violations m))

let test_commit_regression () =
  let m =
    feed
      [
        Icc_sim.Trace.Commit { party = 1; round = 2; block = "aa" };
        Commit { party = 1; round = 1; block = "bb" };
      ]
  in
  Alcotest.(check (list string)) "regression" [ "commit-regression" ]
    (whats (Icc_sim.Monitor.fatal_violations m))

(* Byzantine evidence the protocol tolerates stays non-fatal. *)
let test_warnings_not_fatal () =
  let m =
    feed
      [
        Icc_sim.Trace.Notarize { party = 2; round = 1; block = "aa" };
        Notarize { party = 2; round = 1; block = "aa" };
        Notarize { party = 3; round = 1; block = "bb" };
        Beacon_share { party = 1; round = 2 };
        Beacon_share { party = 1; round = 2 };
      ]
  in
  Alcotest.(check bool) "still ok" true (Icc_sim.Monitor.ok m);
  Alcotest.(check (list string)) "warnings, in order"
    [ "duplicate-notarize"; "double-notarization"; "duplicate-beacon-share" ]
    (whats (Icc_sim.Monitor.warnings m))

let test_notarize_overflow () =
  let m =
    feed ~n:2
      [
        Icc_sim.Trace.Notarize { party = 1; round = 1; block = "aa" };
        Notarize { party = 2; round = 1; block = "aa" };
        Notarize { party = 1; round = 1; block = "aa" };
      ]
  in
  Alcotest.(check bool) "overflow reported" true
    (List.mem "notarize-overflow"
       (whats (Icc_sim.Monitor.fatal_violations m)))

let test_party_out_of_range () =
  let m = feed [ Icc_sim.Trace.Propose { party = 9; round = 1 } ] in
  Alcotest.(check (list string)) "range" [ "party-out-of-range" ]
    (whats (Icc_sim.Monitor.fatal_violations m))

let test_abort_on_violation () =
  let m = Icc_sim.Monitor.create (config ~abort:true ()) in
  Icc_sim.Monitor.observe m ~time:0.
    (Icc_sim.Trace.Run_start { n = 4; label = "" });
  Icc_sim.Monitor.observe m ~time:1.
    (Icc_sim.Trace.Finalize { party = 1; round = 1; block = "aa" });
  match
    Icc_sim.Monitor.observe m ~time:2.
      (Icc_sim.Trace.Notarize { party = 2; round = 1; block = "bb" })
  with
  | () -> Alcotest.fail "expected Abort"
  | exception Icc_sim.Monitor.Abort v ->
      Alcotest.(check string) "diagnosis" "conflicting-notarization"
        v.Icc_sim.Monitor.v_what;
      Alcotest.(check int) "event index" 2 v.Icc_sim.Monitor.v_index

(* Announcements go back on the bus, after the offending event, so a JSONL
   sink subscribed before the monitor records them on the next lines. *)
let test_violation_announced_on_bus () =
  let tr = Icc_sim.Trace.create () in
  let log = ref [] in
  Icc_sim.Trace.subscribe tr (fun ~time:_ ev ->
      log := Icc_sim.Trace.kind_of ev :: !log);
  let m = Icc_sim.Monitor.attach ~config:(config ()) tr in
  (* timestamps inside the stall budget, so only the violation is announced *)
  Icc_sim.Trace.emit tr ~time:0. (Icc_sim.Trace.Run_start { n = 4; label = "" });
  Icc_sim.Trace.emit tr ~time:0.01
    (Icc_sim.Trace.Finalize { party = 1; round = 1; block = "aa" });
  Icc_sim.Trace.emit tr ~time:0.02
    (Icc_sim.Trace.Notarize { party = 2; round = 1; block = "bb" });
  Alcotest.(check (list string)) "violation follows the offending line"
    [ "run-start"; "finalize"; "notarize"; "monitor-violation" ]
    (List.rev !log);
  (* the monitor counted its own announcement too, keeping indices aligned
     with the JSONL line numbers *)
  Alcotest.(check int) "own announcement counted" 4
    (Icc_sim.Monitor.events_seen m);
  match Icc_sim.Monitor.fatal_violations m with
  | [ v ] -> Alcotest.(check int) "index = line of the notarize" 2 v.v_index
  | _ -> Alcotest.fail "expected one violation"

(* ------------------------------------------- live Byzantine detection *)

(* Over-threshold corruption: keys are generated for t = 2 of n = 7
   (quorum h = 5), but FOUR parties run the promiscuously-sharing
   equivocator — more than the bound the safety proof assumes.  An
   equivocating leader splits its two blocks between parties {1,2,3} and
   {4,5,6,7}; with the corrupt set {1,2,4,5} sharing both halves, block A
   collects {1,2,4,5} + honest 3 = 5 shares and block B collects
   {1,2,4,5} + honest {6,7} = 6 — both quorums, a real double
   notarization (and then conflicting finalizations, breaking P2) that
   the monitor must pin to its round and event index.  The post-hoc Check
   oracles must agree with the online verdict. *)
let byzantine_scenario ~seed ~monitor =
  let eq id = Icc_sim.Adversary.equivocate ~noisy:true id in
  {
    (Icc_core.Runner.default_scenario ~n:7 ~seed) with
    Icc_core.Runner.duration = 1e6;
    max_rounds = Some 8;
    delay = Icc_core.Runner.Fixed_delay 0.02;
    epsilon = 0.05;
    adversary = Some [ eq 1; eq 2; eq 4; eq 5 ];
    monitor;
  }

let test_live_double_notarization () =
  let r =
    Icc_core.Runner.run
      (byzantine_scenario ~seed:5 ~monitor:(Some (config ())))
  in
  match r.Icc_core.Runner.monitor with
  | None -> Alcotest.fail "monitor not attached"
  | Some m ->
      let doubles =
        List.filter
          (fun v -> v.Icc_sim.Monitor.v_what = "double-notarization")
          (Icc_sim.Monitor.warnings m)
      in
      Alcotest.(check bool) "double notarization detected online" true
        (doubles <> []);
      List.iter
        (fun v ->
          Alcotest.(check bool) "round reported" true
            (v.Icc_sim.Monitor.v_round >= 1);
          Alcotest.(check bool) "event index reported" true
            (v.Icc_sim.Monitor.v_index > 0))
        doubles;
      (* h = n - t = 2 < n/2: finalizations for conflicting blocks follow,
         so the online monitor and the post-hoc oracles both flag P2 *)
      Alcotest.(check bool) "online verdict matches post-hoc P2 oracle" true
        (Icc_sim.Monitor.ok m = r.Icc_core.Runner.p2_ok)

let test_live_abort_carries_diagnosis () =
  match
    Icc_core.Runner.run
      (byzantine_scenario ~seed:5 ~monitor:(Some (config ~abort:true ())))
  with
  | _ -> Alcotest.fail "expected the monitored run to abort"
  | exception Icc_sim.Monitor.Abort v ->
      Alcotest.(check bool) "fatal" true v.Icc_sim.Monitor.v_fatal;
      Alcotest.(check bool) "round pinned" true (v.Icc_sim.Monitor.v_round >= 1)

(* --------------------------------------------------- liveness watchdog *)

(* A start-of-run partition (the async_until hold machinery) starves round
   1's notarization pipeline past stall_factor * delta; the watchdog must
   flag the stall and clear it once the partition lifts. *)
let stall_scenario ~async_until ~monitor =
  {
    (Icc_core.Runner.default_scenario ~n:4 ~seed:7) with
    Icc_core.Runner.duration = 1e6;
    max_rounds = Some 4;
    delay = Icc_core.Runner.Fixed_delay 0.02;
    epsilon = 0.05;
    async_until;
    monitor;
  }

let test_stall_flagged_and_cleared () =
  let r =
    Icc_core.Runner.run
      (stall_scenario ~async_until:1.0 ~monitor:(Some (config ())))
  in
  let m = Option.get r.Icc_core.Runner.monitor in
  let stalls = Icc_sim.Monitor.stalls m in
  Alcotest.(check bool) "watchdog fired" true (stalls <> []);
  let round1 =
    List.filter (fun st -> st.Icc_sim.Monitor.st_round = 1) stalls
  in
  Alcotest.(check bool) "round 1 pipeline flagged" true (round1 <> []);
  List.iter
    (fun st ->
      Alcotest.(check bool)
        (Printf.sprintf "stall of round %d (%s) waited past the budget"
           st.Icc_sim.Monitor.st_round st.Icc_sim.Monitor.st_stage)
        true
        (st.Icc_sim.Monitor.st_flagged_at -. st.Icc_sim.Monitor.st_since
        >= 8. *. 0.02))
    stalls;
  (* the partition lifted: every stall recovered *)
  Alcotest.(check (list int)) "no unrecovered stall" []
    (Icc_sim.Monitor.stalled_rounds m);
  Alcotest.(check bool) "stalls are not violations" true
    (Icc_sim.Monitor.ok m && Icc_sim.Monitor.violations m = [])

let test_no_stall_without_partition () =
  let r =
    Icc_core.Runner.run
      (stall_scenario ~async_until:0. ~monitor:(Some (config ())))
  in
  let m = Option.get r.Icc_core.Runner.monitor in
  Alcotest.(check int) "quiet watchdog" 0
    (List.length (Icc_sim.Monitor.stalls m))

(* --------------------------------------------------------- run verdict *)

(* [Runner.verdict] is the one reporter behind `icc run` and `icc profile`.
   The seed-2 run is `icc run -n 4 -d 10 --seed 2 --corrupt-adaptive 2
   --monitor`: two adaptively corrupted leaders exceed t = 1 at n = 4, and
   conflicting notarizations follow. *)
let verdict_scenario ?adversary ~seed () =
  {
    (Icc_core.Runner.default_scenario ~n:4 ~seed) with
    Icc_core.Runner.duration = 10.;
    adversary;
    monitor = Some (Icc_sim.Monitor.default_config ~delta:1.0 ());
  }

let test_verdict_overshoot () =
  let adversary =
    [
      Icc_sim.Adversary.adaptive ~rank:0 ~max_corrupt:2
        (Icc_sim.Adversary.Equivocate { noisy = true });
    ]
  in
  let ok, line =
    Icc_core.Runner.verdict
      (Icc_core.Runner.run (verdict_scenario ~adversary ~seed:2 ()))
  in
  Alcotest.(check bool) "overshoot is not ok" false ok;
  Alcotest.(check string) "reported as a violation" "safety: VIOLATION"
    (String.sub line 0 (String.length "safety: VIOLATION"));
  Alcotest.(check string) "marks P2 and the monitor"
    "safety: VIOLATION (P1 \xe2\x9c\x93 P2 \xe2\x9c\x97 prefix \xe2\x9c\x93 \
     monitor \xe2\x9c\x97)"
    line

let test_verdict_clean () =
  let ok, line =
    Icc_core.Runner.verdict (Icc_core.Runner.run (verdict_scenario ~seed:2 ()))
  in
  Alcotest.(check bool) "clean run is ok" true ok;
  Alcotest.(check string) "clean verdict line"
    "safety: ok (P1 \xe2\x9c\x93 P2 \xe2\x9c\x93 prefix \xe2\x9c\x93 \
     monitor \xe2\x9c\x93)"
    line

(* Baseline harnesses attach the same monitor. *)
let test_baseline_monitored () =
  let scenario =
    {
      (Icc_baselines.Harness.default_scenario ~n:4 ~seed:3) with
      Icc_baselines.Harness.duration = 5.;
      monitor = Some (Icc_sim.Monitor.default_config ~delta:1.0 ());
    }
  in
  let r = Icc_baselines.Pbft.run scenario in
  match r.Icc_baselines.Harness.monitor with
  | None -> Alcotest.fail "monitor not attached"
  | Some m ->
      Alcotest.(check bool) "clean pbft run" true (Icc_sim.Monitor.ok m);
      Alcotest.(check bool) "saw events" true
        (Icc_sim.Monitor.events_seen m > 0)

let suite =
  [
    Alcotest.test_case "clean stream stays clean" `Quick test_clean_stream;
    Alcotest.test_case "P2: finalize then conflicting notarize" `Quick
      test_p2_finalize_then_notarize;
    Alcotest.test_case "P2: notarize then conflicting finalize" `Quick
      test_p2_notarize_then_finalize;
    Alcotest.test_case "conflicting finalizations are fatal" `Quick
      test_conflicting_finalization;
    Alcotest.test_case "commit fork is fatal" `Quick test_fork_on_commit;
    Alcotest.test_case "commit regression is fatal" `Quick
      test_commit_regression;
    Alcotest.test_case "duplicates and double notarization warn only" `Quick
      test_warnings_not_fatal;
    Alcotest.test_case "more than n notarize events is fatal" `Quick
      test_notarize_overflow;
    Alcotest.test_case "party id out of range is fatal" `Quick
      test_party_out_of_range;
    Alcotest.test_case "abort_on_violation raises with diagnosis" `Quick
      test_abort_on_violation;
    Alcotest.test_case "violations announced on the bus, indices aligned"
      `Quick test_violation_announced_on_bus;
    Alcotest.test_case "live double notarization detected online" `Quick
      test_live_double_notarization;
    Alcotest.test_case "live abort carries an event-indexed diagnosis" `Quick
      test_live_abort_carries_diagnosis;
    Alcotest.test_case "watchdog flags and clears a partition stall" `Quick
      test_stall_flagged_and_cleared;
    Alcotest.test_case "watchdog quiet without a partition" `Quick
      test_no_stall_without_partition;
    Alcotest.test_case "verdict: adaptive overshoot is a violation" `Quick
      test_verdict_overshoot;
    Alcotest.test_case "verdict: clean monitored run is ok" `Quick
      test_verdict_clean;
    Alcotest.test_case "baseline harness attaches the monitor" `Quick
      test_baseline_monitored;
  ]
