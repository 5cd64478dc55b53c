(* PBFT and chained-HotStuff baseline tests. *)

let base ?(n = 4) ?(seed = 61) () =
  {
    (Icc_baselines.Harness.default_scenario ~n ~seed) with
    Icc_baselines.Harness.duration = 20.;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    timeout = 1.0;
  }

let test_pbft_happy_path () =
  let r = Icc_baselines.Pbft.run (base ()) in
  Alcotest.(check bool) "safety" true r.Icc_baselines.Harness.safety_ok;
  (* window 1: one batch per 3 delta = 0.15 s -> ~133 in 20 s *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput (%d)" r.Icc_baselines.Harness.blocks_committed)
    true
    (r.Icc_baselines.Harness.blocks_committed > 100);
  Alcotest.(check bool)
    (Printf.sprintf "latency ~3 delta (%.3f)" r.Icc_baselines.Harness.mean_latency)
    true
    (r.Icc_baselines.Harness.mean_latency > 0.14
    && r.Icc_baselines.Harness.mean_latency < 0.17)

let test_pbft_pipelining () =
  let r1 = Icc_baselines.Pbft.run (base ()) in
  let r4 =
    Icc_baselines.Pbft.run { (base ()) with pipeline_window = 4 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "window 4 faster (%d vs %d)"
       r4.Icc_baselines.Harness.blocks_committed
       r1.Icc_baselines.Harness.blocks_committed)
    true
    (r4.Icc_baselines.Harness.blocks_committed
    > 2 * r1.Icc_baselines.Harness.blocks_committed);
  Alcotest.(check bool) "safety" true r4.Icc_baselines.Harness.safety_ok

let test_pbft_view_change_on_leader_crash () =
  let r = Icc_baselines.Pbft.run { (base ()) with kill_at = [ (1, 8.) ] } in
  Alcotest.(check bool) "safety across view change" true
    r.Icc_baselines.Harness.safety_ok;
  (* must make progress both before the crash and after the view change *)
  Alcotest.(check bool)
    (Printf.sprintf "progress (%d)" r.Icc_baselines.Harness.blocks_committed)
    true
    (r.Icc_baselines.Harness.blocks_committed > 60)

let test_pbft_backup_crashes_harmless () =
  let r = Icc_baselines.Pbft.run { (base ~n:7 ()) with crashed = [ 3; 6 ] } in
  Alcotest.(check bool) "safety" true r.Icc_baselines.Harness.safety_ok;
  Alcotest.(check bool) "throughput unaffected" true
    (r.Icc_baselines.Harness.blocks_committed > 100)

let test_hotstuff_happy_path () =
  let r = Icc_baselines.Hotstuff.run (base ()) in
  Alcotest.(check bool) "safety" true r.Icc_baselines.Harness.safety_ok;
  (* one block per view = 2 delta = 0.1 s -> ~190 in 20 s *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput (%d)" r.Icc_baselines.Harness.blocks_committed)
    true
    (r.Icc_baselines.Harness.blocks_committed > 150);
  (* chained three-phase commit: ~6-7 delta *)
  Alcotest.(check bool)
    (Printf.sprintf "latency ~6-7 delta (%.3f)"
       r.Icc_baselines.Harness.mean_latency)
    true
    (r.Icc_baselines.Harness.mean_latency > 0.28
    && r.Icc_baselines.Harness.mean_latency < 0.40)

let test_hotstuff_crash_degrades () =
  (* a crashed replica in the rotation costs a pacemaker timeout per cycle;
     n = 7 keeps alive-leader runs long enough to commit *)
  let r = Icc_baselines.Hotstuff.run { (base ~n:7 ()) with crashed = [ 2 ] } in
  Alcotest.(check bool) "safety" true r.Icc_baselines.Harness.safety_ok;
  Alcotest.(check bool)
    (Printf.sprintf "degraded progress (%d)"
       r.Icc_baselines.Harness.blocks_committed)
    true
    (r.Icc_baselines.Harness.blocks_committed > 20);
  let honest = Icc_baselines.Hotstuff.run (base ~n:7 ()) in
  Alcotest.(check bool) "clearly below fault-free" true
    (r.Icc_baselines.Harness.blocks_committed
    < honest.Icc_baselines.Harness.blocks_committed / 2)

let test_hotstuff_rotation_pathology_n4 () =
  (* a known chained-HotStuff weakness this implementation reproduces (and
     the paper's §1.1 alludes to): with n = 4 round-robin rotation and one
     crashed replica, alive-leader runs are only 3 views long, but a commit
     needs a three-chain plus its carrier — 4 consecutive views — so nothing
     ever commits.  ICC0 under the same fault keeps committing. *)
  let hs = Icc_baselines.Hotstuff.run { (base ~n:4 ()) with crashed = [ 2 ] } in
  Alcotest.(check int) "hotstuff n=4 one crash: no commits" 0
    hs.Icc_baselines.Harness.blocks_committed;
  let icc =
    Icc_core.Runner.run
      {
        (Icc_core.Runner.default_scenario ~n:4 ~seed:61) with
        Icc_core.Runner.duration = 20.;
        delay = Icc_core.Runner.Fixed_delay 0.05;
        epsilon = 0.2;
        delta_bnd = 0.3;
        behaviors = [ (2, Icc_core.Party.crashed) ];
      }
  in
  Alcotest.(check bool) "icc0 same fault keeps committing" true
    (icc.Icc_core.Runner.rounds_decided > 30)

let test_wan_both () =
  let wan =
    { (base ~n:7 ()) with
      Icc_baselines.Harness.delay =
        Icc_core.Runner.Wan { rtt_lo = 0.006; rtt_hi = 0.110 } }
  in
  let p = Icc_baselines.Pbft.run wan in
  let h = Icc_baselines.Hotstuff.run wan in
  Alcotest.(check bool) "pbft wan safety" true p.Icc_baselines.Harness.safety_ok;
  Alcotest.(check bool) "pbft wan progress" true
    (p.Icc_baselines.Harness.blocks_committed > 20);
  Alcotest.(check bool) "hotstuff wan safety" true h.Icc_baselines.Harness.safety_ok;
  Alcotest.(check bool) "hotstuff wan progress" true
    (h.Icc_baselines.Harness.blocks_committed > 20)

let test_determinism () =
  let a = Icc_baselines.Pbft.run (base ~seed:5 ())
  and b = Icc_baselines.Pbft.run (base ~seed:5 ()) in
  Alcotest.(check int) "pbft deterministic" a.Icc_baselines.Harness.blocks_committed
    b.Icc_baselines.Harness.blocks_committed;
  let c = Icc_baselines.Hotstuff.run (base ~seed:5 ())
  and d = Icc_baselines.Hotstuff.run (base ~seed:5 ()) in
  Alcotest.(check int) "hotstuff deterministic"
    c.Icc_baselines.Harness.blocks_committed
    d.Icc_baselines.Harness.blocks_committed

(* Minimised from `icc baselines -p pbft --drop 0.1` (n=7, 30 s): the
   CLI's seed 42 at n=4 for 6 s under 5% loss.  A replica that had
   executed a slot left it out of its View_change, the view-3 primary
   filled it with a no-op, and a lagging replica executed that no-op
   instead: the executed sequences forked, while the monitor, which saw
   only all-honest [Block_decided] events, stayed clean. *)
let test_pbft_lossy_view_change () =
  let r =
    Icc_baselines.Pbft.run
      {
        (Icc_baselines.Harness.default_scenario ~n:4 ~seed:42) with
        Icc_baselines.Harness.duration = 6.;
        nemesis = Some [ Icc_sim.Fault.drop 0.05 ];
        monitor = Some (Icc_sim.Monitor.default_config ~delta:1.0 ());
      }
  in
  Alcotest.(check bool) "safety" true r.Icc_baselines.Harness.safety_ok;
  match r.Icc_baselines.Harness.monitor with
  | Some m -> Alcotest.(check bool) "monitor ok" true (Icc_sim.Monitor.ok m)
  | None -> Alcotest.fail "monitor not attached"

(* Every honest execution reaches the bus as a [Commit] at the replica's
   execution index, so the monitor sees a fork before (or without) any
   all-honest [Block_decided]. *)
let test_tracker_fork_visible () =
  let trace = Icc_sim.Trace.create () in
  let m =
    Icc_sim.Monitor.attach
      ~config:(Icc_sim.Monitor.default_config ~delta:1.0 ())
      trace
  in
  Icc_sim.Trace.emit trace ~time:0.
    (Icc_sim.Trace.Run_start { n = 4; label = "tracker" });
  let tr = Icc_baselines.Harness.tracker ~n_honest:2 ~trace in
  Icc_baselines.Harness.note_execution tr ~party:1 ~digest:"aaaaaaaaaaaaaaaa"
    ~time:0.1;
  Alcotest.(check bool) "one execution is fine" true (Icc_sim.Monitor.ok m);
  Icc_baselines.Harness.note_execution tr ~party:2 ~digest:"bbbbbbbbbbbbbbbb"
    ~time:0.2;
  Alcotest.(check bool) "fork at index 1 seen" false (Icc_sim.Monitor.ok m);
  Alcotest.(check int) "nothing decided" 0 tr.Icc_baselines.Harness.decided

let suite =
  [
    Alcotest.test_case "pbft happy path" `Quick test_pbft_happy_path;
    Alcotest.test_case "pbft pipelining" `Quick test_pbft_pipelining;
    Alcotest.test_case "pbft view change" `Quick test_pbft_view_change_on_leader_crash;
    Alcotest.test_case "pbft backup crashes" `Quick test_pbft_backup_crashes_harmless;
    Alcotest.test_case "hotstuff happy path" `Quick test_hotstuff_happy_path;
    Alcotest.test_case "hotstuff crash degrades" `Quick test_hotstuff_crash_degrades;
    Alcotest.test_case "hotstuff n=4 pathology" `Quick
      test_hotstuff_rotation_pathology_n4;
    Alcotest.test_case "wan both" `Quick test_wan_both;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "pbft lossy view change" `Quick
      test_pbft_lossy_view_change;
    Alcotest.test_case "tracker fork visible" `Quick test_tracker_fork_visible;
  ]
