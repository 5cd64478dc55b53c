(* Tests for the paper's discussed extensions: pool garbage collection
   (§3.1's discard optimisation) and adaptive delay-bound estimation (§1). *)

let base ?(n = 4) ?(seed = 17) () =
  {
    (Icc_core.Runner.default_scenario ~n ~seed) with
    Icc_core.Runner.duration = 20.;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    epsilon = 0.2;
    delta_bnd = 0.3;
  }

(* --- pool pruning ------------------------------------------------------ *)

let test_prune_unit () =
  let kit = Kit.make ~n:4 ~t:1 () in
  let pool = Icc_core.Pool.create kit.Kit.system in
  let rec build parent round =
    if round > 10 then ()
    else begin
      let b = Kit.block ~round ~proposer:1 ~parent () in
      Kit.admit_notarized kit pool b;
      build (Some b) (round + 1)
    end
  in
  build None 1;
  Alcotest.(check int) "ten blocks stored" 10 (Icc_core.Pool.stored_blocks pool);
  Icc_core.Pool.prune pool ~below:8;
  Alcotest.(check int) "three remain" 3 (Icc_core.Pool.stored_blocks pool);
  Alcotest.(check (list int)) "rounds 8..10 remain" [ 8; 9; 10 ]
    (List.sort compare
       (List.concat_map
          (fun r ->
            List.map (fun (b : Icc_core.Block.t) -> b.Icc_core.Block.round)
              (Icc_core.Pool.blocks_of_round pool r))
          [ 6; 7; 8; 9; 10 ]));
  (* new blocks extending the surviving frontier still validate *)
  let frontier =
    match Icc_core.Pool.notarized_blocks pool 10 with
    | b :: _ -> b
    | [] -> Alcotest.fail "frontier missing"
  in
  let b11 = Kit.block ~round:11 ~proposer:2 ~parent:(Some frontier) () in
  Kit.admit_notarized kit pool b11;
  Alcotest.(check bool) "extension notarized" true
    (Icc_core.Pool.is_notarized pool (11, Icc_core.Block.hash b11))

let test_pruned_run_matches_unpruned () =
  let plain = Icc_core.Runner.run (base ()) in
  let pruned =
    Icc_core.Runner.run { (base ()) with Icc_core.Runner.prune_depth = Some 3 }
  in
  Alcotest.(check int) "same rounds decided" plain.Icc_core.Runner.rounds_decided
    pruned.Icc_core.Runner.rounds_decided;
  Alcotest.(check bool) "safety" true pruned.Icc_core.Runner.safety_ok;
  Alcotest.(check (float 1e-12)) "same latency"
    plain.Icc_core.Runner.mean_latency pruned.Icc_core.Runner.mean_latency;
  (* identical committed chains *)
  List.iter2
    (fun (_, c1) (_, c2) ->
      Alcotest.(check (list string)) "same chain"
        (List.map (fun b -> Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b)) c1)
        (List.map (fun b -> Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b)) c2))
    plain.Icc_core.Runner.outputs pruned.Icc_core.Runner.outputs

let test_pruning_under_byzantine_load () =
  let r =
    Icc_core.Runner.run
      {
        (base ()) with
        Icc_core.Runner.prune_depth = Some 2;
        adversary = Some [ Icc_sim.Adversary.equivocate ~noisy:true 2 ];
      }
  in
  Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
  Alcotest.(check bool) "liveness" true (r.Icc_core.Runner.rounds_decided > 30)

(* --- pruning with a laggard --------------------------------------------- *)

(* Party 3 is down over [5, 20) s while the others finalize and prune, so
   blocks leave the proposers' pools before every honest party has output
   them.  Payload selection must still see their commands: an id repeated
   on an honest chain is a command committed twice. *)
let laggard ~depth =
  Icc_core.Runner.run
    {
      (base ()) with
      Icc_core.Runner.duration = 30.;
      prune_depth = Some depth;
      workload = Icc_core.Runner.Load { rate_per_s = 200.; cmd_size = 64 };
      nemesis = Some (Icc_sim.Fault.crash_recover ~party:3 ~down:5. ~up:20.);
    }

let repeated_ids chain =
  let seen = Hashtbl.create 4096 and total = ref 0 in
  List.iter
    (fun (b : Icc_core.Block.t) ->
      List.iter
        (fun c ->
          incr total;
          Hashtbl.replace seen c.Icc_core.Types.cmd_id ())
        b.Icc_core.Block.payload.Icc_core.Types.commands)
    chain;
  !total - Hashtbl.length seen

let test_pruning_with_laggard () =
  let digest_of r =
    Icc_crypto.Sha256.to_hex
      (Icc_crypto.Sha256.digest_string
         (String.concat ";"
            (List.map
               (fun (id, chain) ->
                 string_of_int id ^ ":"
                 ^ String.concat ","
                     (List.map
                        (fun b ->
                          Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b))
                        chain))
               r.Icc_core.Runner.outputs)))
  in
  let check_depth depth =
    let r = laggard ~depth in
    Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
    Alcotest.(check bool) "commands committed" true
      (r.Icc_core.Runner.commands_committed > 0);
    Alcotest.(check int)
      (Printf.sprintf "repeated ids at depth %d" depth)
      0
      (List.fold_left
         (fun acc (_, chain) -> acc + repeated_ids chain)
         0 r.Icc_core.Runner.outputs);
    r
  in
  ignore (check_depth 0);
  Alcotest.(check string) "depth-2 chains"
    "5f4c912963b6768987e119ab6f2d7d7582e7ce0cbbb5eb1a8013b20193789a8f"
    (digest_of (check_depth 2))

(* --- adaptive delay bound ---------------------------------------------- *)

let underestimated ?(adaptive = false) () =
  (* true network delay 0.1 s, configured bound 0.01 s: the liveness
     requirement 2*delta <= 2*delta_bnd + epsilon fails badly, so every
     round races through ranks until shares align *)
  {
    (base ~n:7 ~seed:23 ()) with
    Icc_core.Runner.delay = Icc_core.Runner.Fixed_delay 0.1;
    delta_bnd = 0.01;
    epsilon = 0.02;
    duration = 60.;
    adaptive;
  }

let test_static_underestimate_starves_finalization () =
  (* with delta_bnd 10x below the true delay, every party shares its own
     block before hearing better-ranked ones: N is never a singleton, so no
     finalization share is ever cast — the tree grows (P1) but nothing
     commits.  This is exactly why liveness (P3) needs the delay-function
     requirement (paper §3.5), and what adaptivity repairs. *)
  let static = Icc_core.Runner.run (underestimated ()) in
  let adaptive = Icc_core.Runner.run (underestimated ~adaptive:true ()) in
  Alcotest.(check bool) "static safety" true static.Icc_core.Runner.safety_ok;
  Alcotest.(check bool) "static P1 (tree grows)" true static.Icc_core.Runner.p1_ok;
  Alcotest.(check int) "static finalizes nothing" 0
    static.Icc_core.Runner.rounds_decided;
  Alcotest.(check bool) "adaptive safety" true adaptive.Icc_core.Runner.safety_ok;
  Alcotest.(check bool)
    (Printf.sprintf "adaptive recovers (%d rounds)"
       adaptive.Icc_core.Runner.rounds_decided)
    true
    (adaptive.Icc_core.Runner.rounds_decided > 100);
  (* and converges back to ~1-2 proposals per round *)
  let proposals_per_round =
    float_of_int
      (Icc_sim.Metrics.msgs_of_kind adaptive.Icc_core.Runner.metrics "proposal")
    /. 6. (* broadcast = 6 unicasts at n=7 *)
    /. float_of_int (max 1 adaptive.Icc_core.Runner.rounds_decided)
  in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive proposal rate settles (%.1f/round)"
       proposals_per_round)
    true
    (proposals_per_round < 15.)

let test_adaptive_keeps_happy_path_fast () =
  (* when delta_bnd was already right, adaptivity must not slow anything *)
  let plain = Icc_core.Runner.run (base ()) in
  let adaptive =
    Icc_core.Runner.run { (base ()) with Icc_core.Runner.adaptive = true }
  in
  Alcotest.(check int) "same rounds" plain.Icc_core.Runner.rounds_decided
    adaptive.Icc_core.Runner.rounds_decided;
  Alcotest.(check (float 1e-9)) "same latency"
    plain.Icc_core.Runner.mean_latency adaptive.Icc_core.Runner.mean_latency

let test_adaptive_with_crashes () =
  (* crashed leaders also trigger the scale-up path (indistinguishable from
     slow network); correctness must be unaffected *)
  let r =
    Icc_core.Runner.run
      {
        (base ~n:7 ()) with
        Icc_core.Runner.adaptive = true;
        behaviors = [ (1, Icc_core.Party.crashed); (5, Icc_core.Party.crashed) ];
      }
  in
  Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
  Alcotest.(check bool) "liveness" true (r.Icc_core.Runner.rounds_decided > 15)

let suite =
  [
    Alcotest.test_case "prune unit" `Quick test_prune_unit;
    Alcotest.test_case "pruned run equivalent" `Quick
      test_pruned_run_matches_unpruned;
    Alcotest.test_case "pruning + byzantine" `Quick
      test_pruning_under_byzantine_load;
    Alcotest.test_case "pruning with a laggard" `Quick
      test_pruning_with_laggard;
    Alcotest.test_case "adaptive vs static underestimate" `Quick
      test_static_underestimate_starves_finalization;
    Alcotest.test_case "adaptive happy path" `Quick
      test_adaptive_keeps_happy_path_fast;
    Alcotest.test_case "adaptive with crashes" `Quick test_adaptive_with_crashes;
  ]
