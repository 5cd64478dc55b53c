(* The benchmark harness.

   Part 1 — Bechamel micro-benchmarks, one Test.make per substrate
   operation (crypto, erasure coding, the engine queue, one full simulated
   round).

   Part 2 — exhibit regeneration: every table and figure-class claim of the
   paper's evaluation, E1 (Table 1) through E8, printed in the same
   rows/series the paper reports.  See DESIGN.md section 2 for the index and
   EXPERIMENTS.md for paper-vs-measured.

     dune exec bench/main.exe            full run (~minutes)
     dune exec bench/main.exe -- --quick reduced sweeps
     dune exec bench/main.exe -- perf    hot-path before/after (see Perf)
     dune exec bench/main.exe -- micro   part 1 only *)

open Bechamel
open Toolkit

let quick = Array.exists (String.equal "--quick") Sys.argv

(* ----------------------------------------------------------------- *)
(* Part 1: micro-benchmarks                                           *)
(* ----------------------------------------------------------------- *)

let rng = Icc_sim.Rng.create 0xbe7c
let rand_bits () = Icc_sim.Rng.bits61 rng

let kilobyte = String.init 1024 (fun i -> Char.chr (i land 0xff))

let bench_sha256 =
  Test.make ~name:"sha256-1KiB" (Staged.stage (fun () ->
      ignore (Icc_crypto.Sha256.digest_string kilobyte)))

(* The two kernels under every signature check (DESIGN.md §3.5): field
   multiplication modulo p and q, generic and table-backed exponentiation,
   and a one-block digest the size of a Schnorr challenge. *)
let fp_a = Icc_crypto.Group.p - 12_345_678_901
let fp_b = 987_654_321_987_654_321

let bench_fp_mul_p =
  Test.make ~name:"fp-mul-p" (Staged.stage (fun () ->
      ignore (Icc_crypto.Fp.mul fp_a fp_b Icc_crypto.Group.p)))

let bench_fp_mul_q =
  Test.make ~name:"fp-mul-q" (Staged.stage (fun () ->
      ignore (Icc_crypto.Fp.mul (fp_a / 2) fp_b Icc_crypto.Group.q)))

let pow_base =
  Icc_crypto.Group.hash_to_group (Icc_crypto.Sha256.digest_string "bench base")

let pow_exp = Icc_crypto.Group.random_scalar rand_bits

let bench_group_pow =
  Test.make ~name:"group-pow" (Staged.stage (fun () ->
      ignore (Icc_crypto.Group.pow pow_base pow_exp)))

let bench_group_pow_cached =
  Test.make ~name:"group-pow-cached" (Staged.stage (fun () ->
      ignore (Icc_crypto.Group.base_pow pow_exp)))

let challenge_53 = String.init 53 (fun i -> Char.chr (i * 31 mod 251))

let bench_sha256_53 =
  Test.make ~name:"sha256-53B" (Staged.stage (fun () ->
      ignore (Icc_crypto.Sha256.digest_string challenge_53)))

(* Signature rows sign what the protocol signs: a notarization text on a
   real 32-byte block digest (36 bytes, one SHA-256 block per challenge). *)
let signed_text =
  Icc_core.Types.notarization_text ~round:7 ~proposer:3
    ~block_hash:(Icc_crypto.Sha256.digest_string "bench block")

let schnorr_sk, schnorr_pk = Icc_crypto.Schnorr.keygen rand_bits
let schnorr_sig = Icc_crypto.Schnorr.sign schnorr_sk signed_text

let bench_schnorr_sign =
  Test.make ~name:"schnorr-sign" (Staged.stage (fun () ->
      ignore (Icc_crypto.Schnorr.sign schnorr_sk signed_text)))

let bench_schnorr_verify =
  Test.make ~name:"schnorr-verify" (Staged.stage (fun () ->
      ignore (Icc_crypto.Schnorr.verify schnorr_pk signed_text schnorr_sig)))

let vuf_params, vuf_secrets = Icc_crypto.Threshold_vuf.setup ~threshold_t:4 ~n:13 rand_bits
let vuf_msg = "beacon round 7"
let vuf_shares =
  List.map (fun sk -> Icc_crypto.Threshold_vuf.sign_share vuf_params sk vuf_msg)
    vuf_secrets

let bench_vuf_share =
  Test.make ~name:"beacon-share-sign" (Staged.stage (fun () ->
      ignore
        (Icc_crypto.Threshold_vuf.sign_share vuf_params (List.hd vuf_secrets)
           vuf_msg)))

let bench_vuf_verify_share =
  Test.make ~name:"beacon-share-verify" (Staged.stage (fun () ->
      ignore
        (Icc_crypto.Threshold_vuf.verify_share vuf_params vuf_msg
           (List.hd vuf_shares))))

let bench_vuf_combine =
  Test.make ~name:"beacon-combine-t5" (Staged.stage (fun () ->
      ignore (Icc_crypto.Threshold_vuf.combine vuf_params vuf_msg vuf_shares)))

let ms_params, ms_secrets = Icc_crypto.Multisig.setup ~threshold_h:9 ~n:13 rand_bits
let ms_shares =
  List.map (fun sk -> Icc_crypto.Multisig.sign_share ms_params sk signed_text)
    ms_secrets

let bench_multisig_combine =
  Test.make ~name:"multisig-combine-9of13" (Staged.stage (fun () ->
      ignore (Icc_crypto.Multisig.combine ms_params signed_text ms_shares)))

let rs_data = String.init 65536 (fun i -> Char.chr (i land 0xff))
let rs_coded = Icc_erasure.Reed_solomon.encode ~k:5 ~n:13 rs_data
let rs_fragments =
  List.filteri (fun i _ -> i mod 2 = 0)
    (Array.to_list
       (Array.mapi (fun i f -> (i, f)) rs_coded.Icc_erasure.Reed_solomon.fragments))

let bench_rs_encode =
  Test.make ~name:"reed-solomon-encode-64KiB" (Staged.stage (fun () ->
      ignore (Icc_erasure.Reed_solomon.encode ~k:5 ~n:13 rs_data)))

let bench_rs_decode =
  Test.make ~name:"reed-solomon-decode-64KiB" (Staged.stage (fun () ->
      ignore
        (Icc_erasure.Reed_solomon.decode ~k:5 ~n:13 ~data_size:65536 rs_fragments)))

let merkle_leaves = List.init 13 (fun i -> Printf.sprintf "leaf-%d" i)
let merkle_root = Icc_crypto.Merkle.root_of_leaves merkle_leaves
let merkle_proof = Icc_crypto.Merkle.prove merkle_leaves 7

let bench_merkle_prove =
  Test.make ~name:"merkle-prove-13" (Staged.stage (fun () ->
      ignore (Icc_crypto.Merkle.prove merkle_leaves 7)))

let bench_merkle_verify =
  Test.make ~name:"merkle-verify-13" (Staged.stage (fun () ->
      ignore (Icc_crypto.Merkle.verify ~root:merkle_root ~leaf:"leaf-7" merkle_proof)))

(* One party's side of one ICC2 RBC instance at n=16, k=6: a fresh
   instance admits the 15 other parties' fragments of a ~1.3 KB bundle,
   reconstructs at the sixth and checks the nine after delivery.  This
   is the path the authenticated-node cache shortens (DESIGN.md §3.5).
   Each run builds a new RBC, about 4 us of the row: Bechamel's
   per-run resources hand every run of a sample the same one. *)
let rbc_n = 16

let rbc_system, rbc_keys =
  let system, keys = Icc_crypto.Keygen.generate ~n:rbc_n ~t:5 rand_bits in
  (system, Array.of_list keys)

let rbc_ctx () =
  let env = Icc_sim.Transport.env ~n:rbc_n () in
  {
    Icc_core.Runner.tr_engine = env.Icc_sim.Transport.engine;
    tr_trace = env.Icc_sim.Transport.trace;
    tr_n = rbc_n;
    tr_t = 5;
    tr_rng = Icc_sim.Rng.create 0;
    tr_delay_model = Icc_sim.Network.Fixed 0.01;
    tr_async_until = 0.;
    tr_fault = None;
    tr_adversary = None;
    tr_is_active = (fun _ -> true);
    tr_deliver = (fun ~dst:_ _ -> ());
    tr_system = rbc_system;
    tr_keys = rbc_keys;
  }

let rbc_frags =
  let commands =
    List.init 34 (fun i ->
        Icc_core.Types.command ~tag:(String.make 24 'k') ~cmd_id:i
          ~cmd_size:1024 ~submitted_at:0. ())
  in
  let block =
    Icc_core.Block.create ~round:1 ~proposer:3
      ~parent_hash:Icc_core.Block.root_hash
      ~payload:{ Icc_core.Types.commands; filler_size = 0 }
  in
  let msg =
    Icc_core.Message.Proposal
      {
        p_block = block;
        p_authenticator =
          Icc_crypto.Schnorr.sign rbc_keys.(2).Icc_crypto.Keygen.auth
            (Icc_core.Types.authenticator_text ~round:1 ~proposer:3
               ~block_hash:(Icc_core.Block.hash block));
        p_parent_cert = None;
      }
  in
  let frag = Icc_rbc.Rbc.fragment (Icc_rbc.Rbc.create (rbc_ctx ())) ~src:3 msg in
  Array.init (rbc_n - 1) (fun i -> frag (i + 1))

let bench_rbc_instance =
  Test.make ~name:"rbc-instance-16" (Staged.stage (fun () ->
      let rbc = Icc_rbc.Rbc.create (rbc_ctx ()) in
      Array.iter (Icc_rbc.Rbc.on_frag rbc ~dst:1) rbc_frags))

(* One party's beacon work for one round at n=16, t=5, as [Beacon] does
   it: the round's message point once, the party's own share, t+1 share
   checks and the combine.  The message is the same every run, so the
   point's fixed-base table is warm, as it is after a round's first
   shares. *)
let beacon_params = rbc_system.Icc_crypto.Keygen.beacon
let beacon_msg = Icc_core.Types.beacon_text ~round:7 ~prev_sigma:"1234567"

let beacon_peer_shares =
  List.init 6 (fun i ->
      Icc_crypto.Threshold_vuf.sign_share beacon_params
        rbc_keys.(i + 1).Icc_crypto.Keygen.beacon_key beacon_msg)

let bench_beacon_round =
  Test.make ~name:"beacon-round-16" (Staged.stage (fun () ->
      let point = Icc_crypto.Threshold_vuf.message_point beacon_msg in
      ignore
        (Icc_crypto.Threshold_vuf.sign_share_at beacon_params
           rbc_keys.(0).Icc_crypto.Keygen.beacon_key ~point beacon_msg);
      ignore
        (Icc_crypto.Threshold_vuf.combine_preverified beacon_params
           (List.filter
              (Icc_crypto.Threshold_vuf.verify_share_at beacon_params ~point)
              beacon_peer_shares))))

(* The engine's three queue shapes (DESIGN.md §3.6): 1000 events at
   distinct times, as WAN deliveries land; the same 1000 times over 16
   lanes, as WAN unicasts land on their links; and 1000 at one time, as a
   fixed-delay broadcast burst lands.  One engine serves every run, so a
   row is schedule plus dispatch in steady state. *)
let engine = Icc_sim.Engine.create ()

let distinct_delays =
  Array.init 1000 (fun i -> 0.001 *. float_of_int (((i * 7919) mod 1000) + 1))

let bench_engine_distinct =
  Test.make ~name:"engine-distinct-1k" (Staged.stage (fun () ->
      Array.iter
        (fun delay -> Icc_sim.Engine.schedule engine ~delay ignore)
        distinct_delays;
      Icc_sim.Engine.run engine))

(* Event i goes on lane i mod 16; each lane's delays are sorted, so its
   times rise as a link's do. *)
let lane_delays =
  let d = Array.copy distinct_delays in
  for k = 0 to 15 do
    let idx = List.filter (fun i -> i mod 16 = k) (List.init 1000 Fun.id) in
    let sorted = List.sort Float.compare (List.map (Array.get d) idx) in
    List.iter2 (Array.set d) idx sorted
  done;
  d

let engine_lanes = Array.init 16 (fun _ -> Icc_sim.Engine.lane engine ignore)

let bench_engine_lanes =
  Test.make ~name:"engine-lanes-1k" (Staged.stage (fun () ->
      Array.iteri
        (fun i delay ->
          ignore
            (Icc_sim.Engine.schedule_lane engine engine_lanes.(i mod 16)
               ~time:(Icc_sim.Engine.now engine +. delay)))
        lane_delays;
      Icc_sim.Engine.run engine))

let bench_engine_burst =
  Test.make ~name:"engine-burst-1k" (Staged.stage (fun () ->
      for _ = 1 to 1000 do
        Icc_sim.Engine.schedule engine ~delay:0.05 ignore
      done;
      Icc_sim.Engine.run engine))

let bench_icc0_rounds =
  (* one full simulated five-round ICC0 consensus among 4 parties,
     including key generation — the end-to-end cost of the protocol *)
  Test.make ~name:"icc0-5-rounds-n4" (Staged.stage (fun () ->
      ignore
        (Icc_core.Runner.run
           {
             (Icc_core.Runner.default_scenario ~n:4 ~seed:1) with
             Icc_core.Runner.duration = 1e6;
             max_rounds = Some 5;
             delay = Icc_core.Runner.Fixed_delay 0.02;
             epsilon = 0.05;
           })))

let micro_tests =
  Test.make_grouped ~name:"icc" ~fmt:"%s/%s"
    [
      bench_fp_mul_p;
      bench_fp_mul_q;
      bench_group_pow;
      bench_group_pow_cached;
      bench_sha256_53;
      bench_sha256;
      bench_schnorr_sign;
      bench_schnorr_verify;
      bench_vuf_share;
      bench_vuf_verify_share;
      bench_vuf_combine;
      bench_beacon_round;
      bench_multisig_combine;
      bench_rs_encode;
      bench_rs_decode;
      bench_merkle_prove;
      bench_merkle_verify;
      bench_rbc_instance;
      bench_engine_distinct;
      bench_engine_lanes;
      bench_engine_burst;
      bench_icc0_rounds;
    ]

let run_micro () =
  print_endline "== micro-benchmarks (bechamel, monotonic clock) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(if quick then 200 else 1000)
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-34s %16s\n" "operation" "time per run";
  List.iter
    (fun (name, ns) ->
      let human =
        if ns > 1e9 then Printf.sprintf "%8.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-34s %16s\n" name human)
    rows;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* Part 1b: per-round timeline, derived from the trace consumer       *)
(* ----------------------------------------------------------------- *)

(* For each protocol variant on one fixed scenario: the per-round pipeline
   deltas (first round entry -> first proposal -> first notarization ->
   first finalization) and the per-kind traffic breakdown.  Every number
   comes out of the Metrics trace subscriber. *)
let timeline_scenario ~seed =
  {
    (Icc_core.Runner.default_scenario ~n:7 ~seed) with
    Icc_core.Runner.duration = 10.;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    (* invariants watched while the timelines run *)
    monitor = Some (Icc_sim.Monitor.default_config ~delta:1.0 ());
  }

let print_timeline label (metrics : Icc_sim.Metrics.t) =
  Printf.printf "-- %s: per-round pipeline (first events, seconds) --\n" label;
  Printf.printf "%5s %9s %10s %10s %10s %9s\n" "round" "entry" "+propose"
    "+notarize" "+decided" "total";
  let dash w = String.make (w - 1) ' ' ^ "-" in
  let abs = function
    | Some a -> Printf.sprintf "%9.3f" a
    | None -> dash 9
  in
  let delta w a b =
    match (a, b) with
    | Some a, Some b -> Printf.sprintf "%*.3f" w (b -. a)
    | _ -> dash w
  in
  let rows = Icc_sim.Metrics.rounds metrics in
  List.iteri
    (fun i (r : Icc_sim.Metrics.round_row) ->
      if i < 8 then
        Printf.printf "%5d %s %s %s %s %s\n" r.r_round (abs r.r_entry)
          (delta 10 r.r_entry r.r_propose)
          (delta 10 r.r_propose r.r_notarize)
          (delta 10 r.r_notarize r.r_decided)
          (delta 9 r.r_entry r.r_decided))
    rows;
  if List.length rows > 8 then
    Printf.printf "  ... (%d rounds total)\n" (List.length rows);
  print_endline "   traffic by kind:";
  List.iter
    (fun (kind, msgs, bytes) ->
      Printf.printf "     %-18s %7d msgs %10d bytes\n" kind msgs bytes)
    (Icc_sim.Metrics.kinds metrics);
  print_newline ()

let monitor_verdict label (r : Icc_core.Runner.result) =
  match r.Icc_core.Runner.monitor with
  | None -> ()
  | Some m -> Printf.printf "   %s %s\n" label (Icc_sim.Monitor.summary m)

let run_timelines () =
  print_endline
    "== per-round timelines (ICC0 / ICC1 / ICC2, n=7, delta=50ms) ==";
  let module S = Icc_experiments.Scenario.Icc in
  List.iter
    (fun (p, dissemination) ->
      let r = S.run p (timeline_scenario ~seed:42) in
      print_timeline
        (Printf.sprintf "%s (%s)" (S.label p) dissemination)
        r.Icc_core.Runner.metrics;
      monitor_verdict (S.label p) r)
    [ (S.Icc0, "direct"); (S.icc1, "gossip"); (S.Icc2, "erasure RBC") ]

(* ----------------------------------------------------------------- *)
(* Part 2: exhibit regeneration                                       *)
(* ----------------------------------------------------------------- *)

let exhibit name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "  [%s regenerated in %.1f s]\n\n" name (Unix.gettimeofday () -. t0)

let () =
  if Array.exists (String.equal "perf") Sys.argv then begin
    Perf.main ();
    exit 0
  end;
  if Array.exists (String.equal "micro") Sys.argv then begin
    run_micro ();
    exit 0
  end

let () =
  Printf.printf "ICC reproduction benchmark harness%s\n\n"
    (if quick then " (quick mode)" else "");
  run_micro ();
  run_timelines ();
  exhibit "E1" (fun () ->
      Icc_experiments.Table1.print (Icc_experiments.Table1.run ~quick ()));
  exhibit "E2" (fun () ->
      Icc_experiments.Msg_complexity.print
        (Icc_experiments.Msg_complexity.run ~quick ()));
  exhibit "E3" (fun () ->
      Icc_experiments.Round_complexity.print
        (Icc_experiments.Round_complexity.run ~quick ()));
  exhibit "E4" (fun () ->
      Icc_experiments.Throughput_latency.print
        (Icc_experiments.Throughput_latency.run ~quick ()));
  exhibit "E5" (fun () ->
      Icc_experiments.Leader_bottleneck.print
        (Icc_experiments.Leader_bottleneck.run ~quick ()));
  exhibit "E6" (fun () ->
      Icc_experiments.Baselines_compare.print
        (Icc_experiments.Baselines_compare.run ~quick ()));
  exhibit "E7" (fun () ->
      Icc_experiments.Robustness.print (Icc_experiments.Robustness.run ~quick ()));
  exhibit "E8" (fun () ->
      Icc_experiments.Asynchrony.print (Icc_experiments.Asynchrony.run ~quick ()));
  exhibit "E9" (fun () ->
      Icc_experiments.Adaptivity.print (Icc_experiments.Adaptivity.run ~quick ()))
