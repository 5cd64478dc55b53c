(* Pinned interposed streams: the SHA-256 of the full JSONL trace of short
   seeded n=4 runs, one per interposition layer and protocol.  The digests
   were recorded before the network's release policy became a creation
   argument; any change to the order in which the delay model, the nemesis
   and the adversary draw from their RNG streams changes a digest. *)

let digest_of_run run =
  let buf = Buffer.create (1 lsl 16) in
  let trace = Icc_sim.Trace.create () in
  Icc_sim.Trace.subscribe trace (fun ~time ev ->
      Buffer.add_string buf (Icc_sim.Trace.to_json ~time ev);
      Buffer.add_char buf '\n');
  run trace;
  Icc_crypto.Sha256.(to_hex (digest_string (Buffer.contents buf)))

let icc scenario trace =
  ignore (scenario { (Icc_core.Runner.default_scenario ~n:4 ~seed:11) with
                     Icc_core.Runner.duration = 3.; trace = Some trace })

let icc0_async_hold trace =
  icc
    (fun s ->
      Icc_core.Runner.run
        { s with
          Icc_core.Runner.delay = Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
          async_until = 1. })
    trace

let icc1_nemesis trace =
  icc
    (fun s ->
      Icc_gossip.Icc1.run ~fanout:3
        { s with
          Icc_core.Runner.delay = Icc_core.Runner.Uniform_delay (0.01, 0.05);
          nemesis =
            Some
              (Icc_sim.Fault.drop 0.1
               :: Icc_sim.Fault.partition ~from_:0.5 ~until:1.2
                    [ [ 1; 2 ]; [ 3; 4 ] ]
               :: Icc_sim.Fault.crash_recover ~party:3 ~down:1.5 ~up:2.2) })
    trace

let icc2_adversary trace =
  icc
    (fun s ->
      Icc_rbc.Icc2.run
        { s with
          Icc_core.Runner.delay = Icc_core.Runner.Uniform_delay (0.01, 0.05);
          adversary =
            Some
              Icc_sim.Adversary.
                [
                  censor ~dsts:[ 1 ] ~until:1. 2;
                  delay ~by:0.1 ~from_:1. ~until:2. 2;
                  straggle ~p:0.3 2;
                  withhold ~notar:true ~p:0.5 2;
                ] })
    trace

(* Party 2 equivocates: its proposals reach the others by [Gossip.inject]'s
   split delivery, each with its own artifact name in the trace. *)
let icc1_equivocate trace =
  icc
    (fun s ->
      Icc_gossip.Icc1.run ~fanout:3
        { s with
          Icc_core.Runner.delay = Icc_core.Runner.Uniform_delay (0.01, 0.05);
          adversary = Some [ Icc_sim.Adversary.equivocate 2 ] })
    trace

(* Regression: the self-copy of the next round's beacon share re-entered
   [step], finished the round and left the outer frame asking for its
   rank in a round whose beacon was unknown ([Party.my_rank] raised).
   This is [icc run -p icc1 -n 4 --wan -d 8 --drop 0.1 --crash-cycle
   2:3:6]. *)
let icc1_crash_cycle trace =
  let r =
    Icc_gossip.Icc1.run
      {
        (Icc_core.Runner.default_scenario ~n:4 ~seed:42) with
        Icc_core.Runner.duration = 8.;
        delay = Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
        nemesis =
          Some
            (Icc_sim.Fault.drop 0.1
            :: Icc_sim.Fault.crash_recover ~party:2 ~down:3. ~up:6.);
        trace = Some trace;
      }
  in
  Alcotest.(check bool) "safety ok" true
    Icc_core.Runner.(r.p1_ok && r.p2_ok && r.prefix_ok)

(* The four golden n=16 runs (ICC0, ICC1, ICC0 on the WAN, and ICC0 under a
   monitored nemesis), at 8 simulated seconds each.  The first three are
   the traces of [icc run -n 16 -d 8], [icc run -p icc1 -n 16 -d 8] and
   [icc run -n 16 --wan -d 8].  Optimisations that promise byte-identical
   traces are held to these digests. *)
let golden16 ?(delay = Icc_core.Runner.Fixed_delay 0.05) ?nemesis ?monitor
    ?(run = Icc_core.Runner.run) trace =
  ignore
    (run
       { (Icc_core.Runner.default_scenario ~n:16 ~seed:42) with
         Icc_core.Runner.duration = 8.;
         delay;
         nemesis;
         monitor;
         trace = Some trace })

let golden16_nemesis =
  golden16
    ~nemesis:
      (Icc_sim.Fault.drop 0.1
       :: Icc_sim.Fault.partition ~from_:2. ~until:3.5
            [ [ 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ] ]
       :: Icc_sim.Fault.crash_recover ~party:3 ~down:4. ~up:6.)
    ~monitor:(Icc_sim.Monitor.default_config ~delta:0.05 ())

let baseline run trace =
  ignore
    (run
       { (Icc_baselines.Harness.default_scenario ~n:4 ~seed:11) with
         Icc_baselines.Harness.duration = 4.;
         delay = Icc_core.Runner.Uniform_delay (0.02, 0.06);
         nemesis = Some [ Icc_sim.Fault.drop 0.1 ];
         adversary = Some [ Icc_sim.Adversary.withhold 2 ];
         trace = Some trace })

(* Client load: KV commands arrive at their own times, interleaved with
   deliveries, and payload selection and [Types.payload_digest] land in
   every block.  Neither is exercised by the [No_load] runs above. *)
let loaded ?(run = Icc_core.Runner.run) ~delay ~rate trace =
  ignore
    (run
       { (Icc_core.Runner.default_scenario ~n:4 ~seed:11) with
         Icc_core.Runner.duration = 3.;
         delay;
         workload = Icc_smr.Workload.kv_load ~rate_per_s:rate ~cmd_size:64;
         trace = Some trace })

(* ICC2 under client load on the WAN at n=7, with duplicated and reordered
   messages: fragments arrive late, twice, and after their instance has
   delivered, so every RBC admission path runs. *)
let icc2_kv_dup_reorder trace =
  ignore
    (Icc_rbc.Icc2.run
       { (Icc_core.Runner.default_scenario ~n:7 ~seed:11) with
         Icc_core.Runner.duration = 3.;
         delay = Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
         workload = Icc_smr.Workload.kv_load ~rate_per_s:300. ~cmd_size:256;
         nemesis =
           Some [ Icc_sim.Fault.duplicate 0.2; Icc_sim.Fault.reorder 0.2 ];
         trace = Some trace })

(* ICC1 under client load on the WAN at n=10, with duplicated and reordered
   messages: the copies that keep their link's order ride the link's engine
   lane, the duplicates and the overtaking copies are events of their own,
   and the two interleave on the same links. *)
let icc1_kv_dup_reorder trace =
  ignore
    (Icc_gossip.Icc1.run ~fanout:3
       { (Icc_core.Runner.default_scenario ~n:10 ~seed:11) with
         Icc_core.Runner.duration = 3.;
         delay = Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
         workload = Icc_smr.Workload.kv_load ~rate_per_s:100. ~cmd_size:64;
         nemesis =
           Some [ Icc_sim.Fault.duplicate 0.2; Icc_sim.Fault.reorder 0.2 ];
         trace = Some trace })

(* A lone party under 2,000 KV cmd/s: no network and little verification,
   so every block is payload selection, digest and commit tracking. *)
let icc0_solo_kv trace =
  ignore
    (Icc_core.Runner.run
       { (Icc_core.Runner.default_scenario ~n:1 ~seed:11) with
         Icc_core.Runner.duration = 5.;
         workload = Icc_smr.Workload.kv_load ~rate_per_s:2000. ~cmd_size:64;
         trace = Some trace })

(* KV load on the WAN at n=7 while party 3 is down over [2, 8) s: no block
   is decided by every honest party for 6 s, so payload selection walks
   that whole undecided stretch of the parent chain. *)
let icc0_kv_crash_recover trace =
  ignore
    (Icc_core.Runner.run
       { (Icc_core.Runner.default_scenario ~n:7 ~seed:11) with
         Icc_core.Runner.duration = 10.;
         delay = Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
         workload = Icc_smr.Workload.kv_load ~rate_per_s:300. ~cmd_size:64;
         nemesis = Some (Icc_sim.Fault.crash_recover ~party:3 ~down:2. ~up:8.);
         monitor = Some (Icc_sim.Monitor.default_config ~delta:1.0 ());
         trace = Some trace })

let pinned name run expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "trace sha256" expected (digest_of_run run))

let suite =
  [
    pinned "icc0 async hold" icc0_async_hold
      "07e0f2de31e9e41a6aa2fb3ec34a9d8135e3c7199f1bd5574934d6a4266311d2";
    pinned "icc1 drop + partition + crash-recover" icc1_nemesis
      "5f92d38d6eda67a0db1bae742ad71362ac58b5c4b06331c524101056a0c229ba";
    pinned "icc2 censor/delay/straggle/withhold" icc2_adversary
      "02ad1b1d3c898a2ed40651afd3b2043bb3b044091756309e8e53687b1c2a00a4";
    pinned "icc1 equivocate" icc1_equivocate
      "26f4b7194d2e56259f686f1eb53296e3906cd1de33d6c6e470c18fe7bc3c1e82";
    pinned "icc1 wan drop + crash cycle" icc1_crash_cycle
      "55e7cdf5ca25f35bec9998c8f5052785cdca029dcd00291a18f3f9ddac00ce7c";
    pinned "golden n=16 icc0" (fun tr -> golden16 tr)
      "4f2ea5adf690cdeb429d1ba73336a84a3fa8c08d58a757447a39d94564258bee";
    pinned "golden n=16 icc1"
      (fun tr -> golden16 ~run:(Icc_gossip.Icc1.run ?fanout:None) tr)
      "30ef1a23c91aaac2e4efa0bc3580ed03eb53fef9effd94f2756783732818a96e";
    pinned "golden n=16 icc0 wan"
      (fun tr -> golden16 ~delay:(Wan { rtt_lo = 0.006; rtt_hi = 0.110 }) tr)
      "fa32ab3d4e621d9f40646be876f8d3914902933b51de8513d65655bba82d0c2c";
    pinned "golden n=16 icc0 nemesis" golden16_nemesis
      "890d13bf435dcc316fe2dca24de23491fa933c9032244e3457a5801f07fbfcdd";
    pinned "icc0 wan kv load"
      (loaded ~delay:(Wan { rtt_lo = 0.006; rtt_hi = 0.110 }) ~rate:200.)
      "2632582c08170a9e1419a6729ad0afc79c7d28be5dab267525b0557052496aab";
    pinned "icc1 kv load"
      (loaded ~run:(Icc_gossip.Icc1.run ~fanout:3)
         ~delay:(Icc_core.Runner.Uniform_delay (0.01, 0.05)) ~rate:100.)
      "45ebd729161f12cc3212cad6fb9af3015ab9a1b89f9c8d8d9e2ef34b920c2d1f";
    pinned "icc2 wan kv load + dup/reorder" icc2_kv_dup_reorder
      "a53466cd9923c57f2e837e768b0a1f01c7d24e91cec310f43ab1a582210155ba";
    pinned "icc1 wan kv load + dup/reorder" icc1_kv_dup_reorder
      "e737588c025efd6a3c39241acabca2f88fd5c4964123a2fab02227725a4eccb1";
    pinned "icc0 solo kv load" icc0_solo_kv
      "b1e6eb363e9ac95f2b325ed75241be3fe81f6127966e7aded426554afb1a21c7";
    pinned "icc0 kv load crash-recover" icc0_kv_crash_recover
      "d1059a968038325ff94ed5f99b19ae3c58994b3d96811136553222939e1a0d9e";
    pinned "pbft drop + withhold" (baseline Icc_baselines.Pbft.run)
      "e1b893857059abea8f773d6a9b73f76a51dfb307ccfe37ac049893bf19192738";
    pinned "hotstuff drop + withhold" (baseline Icc_baselines.Hotstuff.run)
      "4f1452fb7e220b453bbfa78ee9992b1227a7e0f46968824f3e89d1cc13635189";
    pinned "tendermint drop + withhold" (baseline Icc_baselines.Tendermint.run)
      "ec1369030d90bce8f49e608f5b527bda7be4f61ae45c4bf5885cd5bb78e6775e";
  ]
