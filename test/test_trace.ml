(* Trace bus tests: subscription semantics, core/detail filtering, the
   Metrics consumer, percentile edge cases, JSONL shape, and the
   traced-vs-untraced determinism guarantee across ICC0/1/2. *)

let ev_send ?(src = 1) ?(dst = 2) ?(size = 100) ?(kind = "blk") () =
  Icc_sim.Trace.Net_send { src; dst; kind; size; copies = 1 }

let ev_detail () =
  Icc_sim.Trace.Gossip_publish { party = 1; artifact = "prop|1|aa" }

(* -------------------------------------------------- bus semantics *)

let test_no_sink_inactive () =
  let tr = Icc_sim.Trace.create () in
  Alcotest.(check bool) "inactive" false (Icc_sim.Trace.active tr);
  Alcotest.(check bool) "not detailed" false (Icc_sim.Trace.detailed tr);
  (* emitting with no sink is a no-op, not an error *)
  Icc_sim.Trace.emit tr ~time:0. (ev_send ())

let test_subscription_order () =
  let tr = Icc_sim.Trace.create () in
  let log = ref [] in
  Icc_sim.Trace.subscribe tr (fun ~time:_ _ -> log := "a" :: !log);
  Icc_sim.Trace.subscribe tr (fun ~time:_ _ -> log := "b" :: !log);
  Icc_sim.Trace.emit tr ~time:1. (ev_send ());
  Alcotest.(check (list string)) "sinks fire in subscription order"
    [ "a"; "b" ] (List.rev !log)

let test_event_order_and_time () =
  let tr = Icc_sim.Trace.create () in
  let seen = ref [] in
  Icc_sim.Trace.subscribe tr (fun ~time ev ->
      seen := (time, Icc_sim.Trace.kind_of ev) :: !seen);
  Icc_sim.Trace.emit tr ~time:0. (Icc_sim.Trace.Run_start { n = 4; label = "x" });
  Icc_sim.Trace.emit tr ~time:1.5 (ev_send ());
  Icc_sim.Trace.emit tr ~time:2. (Icc_sim.Trace.Run_end { label = "x" });
  Alcotest.(check (list (pair (float 1e-9) string)))
    "events arrive in emission order with their timestamps"
    [ (0., "run-start"); (1.5, "net-send"); (2., "run-end") ]
    (List.rev !seen)

let test_core_sink_filtering () =
  let tr = Icc_sim.Trace.create () in
  let core = ref 0 and all = ref 0 in
  Icc_sim.Trace.subscribe ~all:false tr (fun ~time:_ _ -> incr core);
  Alcotest.(check bool) "core-only sink does not request detail" false
    (Icc_sim.Trace.detailed tr);
  Icc_sim.Trace.subscribe tr (fun ~time:_ _ -> incr all);
  Alcotest.(check bool) "full sink requests detail" true
    (Icc_sim.Trace.detailed tr);
  Icc_sim.Trace.emit tr ~time:0. (ev_send ());
  Icc_sim.Trace.emit tr ~time:0. (ev_detail ());
  Alcotest.(check int) "core sink got only the core event" 1 !core;
  Alcotest.(check int) "full sink got both" 2 !all

let test_levels () =
  let core_kinds =
    [
      Icc_sim.Trace.Run_start { n = 1; label = "" };
      Run_end { label = "" };
      ev_send ();
      Round_entry { party = 1; round = 1 };
      Propose { party = 1; round = 1 };
      Notarize { party = 1; round = 1; block = "ab" };
      Block_decided { round = 1; block = "ab" };
      Protocol_error { party = 1; round = 1; what = "w" };
      Monitor_violation { round = 1; what = "w"; detail = "d" };
      Monitor_stall { round = 1; stage = "entry"; waited = 1. };
      Monitor_clear { round = 1; stage = "entry"; waited = 1. };
      Fault_crash { party = 1 };
      Fault_recover { party = 1 };
      Adv_corrupt { party = 1; round = 1; strategy = "equivocate" };
      Adv_equivocate { party = 1; round = 1; block_a = "aa"; block_b = "bb" };
    ]
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        (Icc_sim.Trace.kind_of ev ^ " is core")
        true
        (Icc_sim.Trace.level_of ev = Icc_sim.Trace.Core))
    core_kinds;
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        (Icc_sim.Trace.kind_of ev ^ " is detail")
        true
        (Icc_sim.Trace.level_of ev = Icc_sim.Trace.Detail))
    [
      Icc_sim.Trace.Engine_dispatch { seq = 0 };
      Net_deliver { src = 1; dst = 2; kind = "x"; size = 1 };
      Net_hold { src = 1; dst = 2; kind = "x"; release = 1. };
      ev_detail ();
      Finalize { party = 1; round = 1; block = "ab" };
      Beacon_share { party = 1; round = 1 };
      Commit { party = 1; round = 1; block = "ab" };
      Rbc_fragment { party = 1; round = 1; proposer = 1; index = 0 };
      Fault_drop { src = 1; dst = 2; kind = "blk" };
      Fault_link_down { src = 1; dst = 2; kind = "blk"; release = 1. };
      Resync_summary { party = 1; peer = 2; round = 1; kmax = 0 };
      Resync_reply { party = 1; peer = 2; from_round = 1; upto = 1; count = 0 };
      Adv_withhold { party = 1; round = 1; kind = "beacon-share" };
      Adv_censor { src = 1; dst = 2; kind = "blk" };
      Adv_delay { src = 1; dst = 2; kind = "prop"; by = 0.1 };
      Adv_straggle { src = 1; dst = 2; kind = "share" };
    ]

(* -------------------------------------------------- metrics consumer *)

let test_metrics_via_trace () =
  let tr = Icc_sim.Trace.create () in
  let m = Icc_sim.Metrics.create 4 in
  Icc_sim.Metrics.attach m tr;
  Icc_sim.Trace.emit tr ~time:0.
    (Icc_sim.Trace.Net_send { src = 1; dst = 0; kind = "blk"; size = 100; copies = 3 });
  Icc_sim.Trace.emit tr ~time:0.1 (ev_send ~src:2 ~size:50 ~kind:"share" ());
  Icc_sim.Trace.emit tr ~time:0.2
    (Icc_sim.Trace.Round_entry { party = 1; round = 1 });
  Icc_sim.Trace.emit tr ~time:0.3 (Icc_sim.Trace.Propose { party = 1; round = 1 });
  Icc_sim.Trace.emit tr ~time:0.4
    (Icc_sim.Trace.Notarize { party = 1; round = 1; block = "ab" });
  Icc_sim.Trace.emit tr ~time:0.9
    (Icc_sim.Trace.Block_decided { round = 1; block = "ab" });
  Alcotest.(check int) "msgs" 4 (Icc_sim.Metrics.total_msgs m);
  Alcotest.(check int) "bytes" 350 (Icc_sim.Metrics.total_bytes m);
  Alcotest.(check int) "blk msgs" 3 (Icc_sim.Metrics.msgs_of_kind m "blk");
  Alcotest.(check int) "blk bytes" 300 (Icc_sim.Metrics.bytes_of_kind m "blk");
  Alcotest.(check int) "share bytes" 50 (Icc_sim.Metrics.bytes_of_kind m "share");
  Alcotest.(check int) "finalized" 1 (Icc_sim.Metrics.finalized_blocks m);
  (match Icc_sim.Metrics.rounds m with
  | [ r ] ->
      Alcotest.(check int) "round" 1 r.r_round;
      Alcotest.(check (option (float 1e-9))) "entry" (Some 0.2) r.r_entry;
      Alcotest.(check (option (float 1e-9))) "propose" (Some 0.3) r.r_propose;
      Alcotest.(check (option (float 1e-9))) "notarize" (Some 0.4)
        r.r_notarize;
      Alcotest.(check (option (float 1e-9))) "decided" (Some 0.9) r.r_decided
  | l -> Alcotest.failf "expected one round row, got %d" (List.length l));
  (* decide latency measured from the round's first proposal *)
  Alcotest.(check (list (float 1e-9))) "latency" [ 0.6 ]
    (Icc_sim.Metrics.latencies m)

(* Each column keeps its round's first event; [Finalize] and the
   gossip/RBC counts are detail-level, so only a direct [observe] (an
   offline fold) fills them, never the core-level bus sink. *)
let test_metrics_first_event_wins () =
  let tr = Icc_sim.Trace.create () in
  let m = Icc_sim.Metrics.create 4 in
  Icc_sim.Metrics.attach m tr;
  Icc_sim.Trace.emit tr ~time:0.2 (Icc_sim.Trace.Propose { party = 1; round = 3 });
  Icc_sim.Trace.emit tr ~time:0.5 (Icc_sim.Trace.Propose { party = 2; round = 3 });
  Icc_sim.Trace.emit tr ~time:0.6
    (Icc_sim.Trace.Finalize { party = 1; round = 3; block = "ab" });
  Icc_sim.Trace.emit tr ~time:0.6 (ev_detail ());
  let row m =
    match Icc_sim.Metrics.rounds m with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one round row, got %d" (List.length l)
  in
  Alcotest.(check (option (float 1e-9))) "first proposal kept" (Some 0.2)
    (row m).r_propose;
  Alcotest.(check (option (float 1e-9))) "bus sink: no finalize" None
    (row m).r_finalize;
  Alcotest.(check int) "bus sink: no gossip count" 0
    (Icc_sim.Metrics.dissemination m).gossip_publish;
  Icc_sim.Metrics.observe m ~time:0.7
    (Icc_sim.Trace.Finalize { party = 2; round = 3; block = "ab" });
  Icc_sim.Metrics.observe m ~time:0.8 (ev_detail ());
  Icc_sim.Metrics.observe m ~time:0.9
    (Icc_sim.Trace.Finalize { party = 3; round = 3; block = "ab" });
  Alcotest.(check (option (float 1e-9))) "observe: first finalize" (Some 0.7)
    (row m).r_finalize;
  Alcotest.(check int) "observe: gossip counted" 1
    (Icc_sim.Metrics.dissemination m).gossip_publish

let test_percentile_edge_cases () =
  let nan_ok x = Alcotest.(check bool) "nan" true (Float.is_nan x) in
  nan_ok (Icc_sim.Metrics.percentile 50. []);
  nan_ok (Icc_sim.Metrics.percentile 50. [ nan; nan ]);
  Alcotest.(check (float 1e-9)) "singleton p0" 7.
    (Icc_sim.Metrics.percentile 0. [ 7. ]);
  Alcotest.(check (float 1e-9)) "singleton p100" 7.
    (Icc_sim.Metrics.percentile 100. [ 7. ]);
  Alcotest.(check (float 1e-9)) "nan values dropped" 2.
    (Icc_sim.Metrics.percentile 50. [ 3.; nan; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "p90 of 1..10" 9.
    (Icc_sim.Metrics.percentile 90. (List.init 10 (fun i -> float_of_int (i + 1))))

(* -------------------------------------------------- json shape *)

let test_json_shape () =
  let json = Icc_sim.Trace.to_json ~time:1.25 (ev_send ()) in
  Alcotest.(check string) "net-send json"
    {|{"t":1.250000,"ev":"net-send","src":1,"dst":2,"kind":"blk","size":100,"copies":1}|}
    json;
  (* artifact ids and labels pass through string escaping *)
  let tricky =
    Icc_sim.Trace.to_json ~time:0.
      (Icc_sim.Trace.Gossip_publish { party = 1; artifact = {|a"b\c|} })
  in
  Alcotest.(check string) "escaped artifact"
    {|{"t":0.000000,"ev":"gossip-publish","party":1,"artifact":"a\"b\\c"}|}
    tricky

(* The trace writer shares {!Icc_obs.Json}'s escaper: control characters
   in a string payload must not reach the JSONL line raw. *)
let test_json_escape_control () =
  Alcotest.(check string) "newline and \\x01 escaped"
    {|{"t":0.000000,"ev":"gossip-publish","party":1,"artifact":"a\nb\u0001\"\\"}|}
    (Icc_sim.Trace.to_json ~time:0.
       (Icc_sim.Trace.Gossip_publish { party = 1; artifact = "a\nb\x01\"\\" }))

(* -------------------------------------------------- json round-trip *)

(* One witness per constructor, with payloads exercising escaping and
   numeric corner cases. *)
let all_constructor_witnesses : Icc_sim.Trace.event list =
  [
    Icc_sim.Trace.Run_start { n = 4; label = {|wan "q" \x|} };
    Run_end { label = "" };
    Engine_dispatch { seq = 123456789 };
    Net_send { src = 1; dst = 0; kind = "blk"; size = 100; copies = 3 };
    Net_deliver { src = 3; dst = 1; kind = "share"; size = 0 };
    Net_hold { src = 2; dst = 4; kind = "prop"; release = 1.75 };
    Gossip_publish { party = 1; artifact = {|prop|1|a"b\c|} };
    Gossip_request { party = 2; peer = 3; artifact = "nz|2|ff" };
    Gossip_acquire { party = 3; peer = 1; artifact = "\ttab\nnewline" };
    Rbc_fragment { party = 1; round = 2; proposer = 3; index = 0 };
    Rbc_echo { party = 2; round = 9; proposer = 1 };
    Rbc_reconstruct { party = 4; round = 7; proposer = 2 };
    Rbc_inconsistent { party = 1; round = 1; proposer = 1 };
    Round_entry { party = 2; round = 5 };
    Propose { party = 1; round = 5 };
    Notarize { party = 3; round = 5; block = "ab12cd34ef56" };
    Finalize { party = 3; round = 5; block = "ab12cd34ef56" };
    Beacon_share { party = 4; round = 6 };
    Commit { party = 2; round = 5; block = "ab12cd34ef56" };
    Block_decided { round = 5; block = "ab12cd34ef56" };
    Protocol_error
      { party = 2; round = 5; what = {|notarization-combine-failed "x"|} };
    Monitor_violation
      { round = 5; what = "conflicting-notarization"; detail = {|"aa" vs "bb"|} };
    Monitor_stall { round = 6; stage = "notarize"; waited = 0.42 };
    Monitor_clear { round = 6; stage = "notarize"; waited = 0.84 };
    Fault_drop { src = 1; dst = 2; kind = {|blk "q"|} };
    Fault_duplicate { src = 2; dst = 3; kind = "share"; copies = 3 };
    Fault_reorder { src = 4; dst = 1; kind = "prop"; extra = 0.125 };
    Fault_link_down { src = 1; dst = 4; kind = "blk"; release = 2.5 };
    Fault_crash { party = 3 };
    Fault_recover { party = 3 };
    Adv_corrupt { party = 2; round = 4; strategy = {|equivocate "noisy"|} };
    Adv_equivocate
      { party = 2; round = 4; block_a = "ab12cd34ef56"; block_b = "fe65dc43" };
    Adv_withhold { party = 3; round = 5; kind = "notarization-share" };
    Adv_censor { src = 1; dst = 4; kind = {|blk "q"|} };
    Adv_delay { src = 2; dst = 3; kind = "prop"; by = 0.375 };
    Adv_straggle { src = 4; dst = 1; kind = "share" };
    Resync_summary { party = 1; peer = 2; round = 9; kmax = 7 };
    Resync_request { party = 2; peer = 1; from_round = 8; upto = 9 };
    Resync_reply { party = 1; peer = 2; from_round = 8; upto = 9; count = 11 };
    Prof_span
      { name = {|engine.dispatch;party.step "x"|}; count = 42;
        total_us = 123456; self_us = 654 };
    Prof_counter { name = "schnorr_verifies"; value = 98765 };
  ]

let test_json_round_trip () =
  List.iteri
    (fun i ev ->
      let time = 0.125 *. float_of_int i in
      let line = Icc_sim.Trace.to_json ~time ev in
      match Icc_sim.Trace.of_json line with
      | Error msg ->
          Alcotest.failf "%s failed to parse back (%s): %s"
            (Icc_sim.Trace.kind_of ev) msg line
      | Ok (t, ev') ->
          Alcotest.(check (float 1e-9))
            (Icc_sim.Trace.kind_of ev ^ " time")
            time t;
          Alcotest.(check bool)
            (Icc_sim.Trace.kind_of ev ^ " payload survives the round trip")
            true (ev = ev'))
    all_constructor_witnesses

let test_json_round_trip_is_exhaustive () =
  (* Every kind the bus can produce appears in the witness list, so adding
     a constructor without extending of_json fails here. *)
  let witnessed =
    List.map Icc_sim.Trace.kind_of all_constructor_witnesses
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "one witness per constructor" 41
    (List.length witnessed)

(* Property: round-tripping holds for arbitrary payload contents, not just
   the hand-picked witnesses — random strings (any bytes), ints, floats. *)
let prop_json_round_trip =
  let gen =
    QCheck.Gen.(
      let str = string_size ~gen:(char_range '\000' '\255') (int_bound 40) in
      let pid = int_range 0 99 and rnd = int_range 0 9999 in
      (* to_json renders floats with %.6f, so only generate values exact at
         six decimals — millisecond multiples. *)
      let fl = map (fun k -> float_of_int k /. 1000.) (int_bound 999_999) in
      oneof
        [
          map2 (fun n label -> Icc_sim.Trace.Run_start { n; label }) pid str;
          map (fun label -> Icc_sim.Trace.Run_end { label }) str;
          map2
            (fun party artifact ->
              Icc_sim.Trace.Gossip_publish { party; artifact })
            pid str;
          map3
            (fun (src, dst) kind (size, copies) ->
              Icc_sim.Trace.Net_send { src; dst; kind; size; copies })
            (pair pid pid) str (pair rnd pid);
          map2
            (fun party round ->
              Icc_sim.Trace.Beacon_share { party; round })
            pid rnd;
          map3
            (fun round what detail ->
              Icc_sim.Trace.Monitor_violation { round; what; detail })
            rnd str str;
          map3
            (fun round stage waited ->
              Icc_sim.Trace.Monitor_stall { round; stage; waited })
            rnd str fl;
        ])
  in
  QCheck.Test.make ~name:"of_json inverts to_json on random payloads"
    ~count:500
    (QCheck.make ~print:(fun ev -> Icc_sim.Trace.to_json ~time:1. ev) gen)
    (fun ev ->
      match Icc_sim.Trace.of_json (Icc_sim.Trace.to_json ~time:1. ev) with
      | Ok (1., ev') -> ev = ev'
      | _ -> false)

let test_json_malformed () =
  let is_error s =
    match Icc_sim.Trace.of_json s with Error _ -> true | Ok _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (is_error s))
    [
      "";
      "not json";
      "{";
      {|{"t":1.0}|};
      {|{"ev":"propose","party":1,"round":2}|};
      {|{"t":1.0,"ev":"no-such-kind"}|};
      {|{"t":1.0,"ev":"propose","party":1}|};
      {|{"t":1.0,"ev":"propose","party":"one","round":2}|};
      {|{"t":1.0,"ev":"propose","party":1,"round":2} trailing|};
      {|{"t":1.0,"ev":"net-send","src":1,"dst":2,"kind":"blk","size":100,"copies":1|};
    ]

(* ------------------------------------- traced/untraced determinism *)

let scenario ~seed =
  {
    (Icc_core.Runner.default_scenario ~n:4 ~seed) with
    Icc_core.Runner.duration = 1e6;
    max_rounds = Some 6;
    delay = Icc_core.Runner.Fixed_delay 0.02;
    epsilon = 0.05;
  }

let fingerprint (r : Icc_core.Runner.result) =
  ( ( r.Icc_core.Runner.rounds_decided,
      Icc_sim.Metrics.total_msgs r.Icc_core.Runner.metrics,
      Icc_sim.Metrics.total_bytes r.Icc_core.Runner.metrics ),
    (r.Icc_core.Runner.duration, r.Icc_core.Runner.mean_latency) )

let fp_check name expected actual =
  Alcotest.(
    check
      (pair (triple int int int) (pair (float 1e-12) (float 1e-12)))
      name expected actual)

(* Four runs of the same seed — untraced, traced, monitored, traced AND
   monitored — must produce identical results: neither observer may
   influence scheduling. *)
let check_deterministic name run =
  let untraced = run (None, false) in
  let tr = Icc_sim.Trace.create () in
  let events = ref 0 in
  Icc_sim.Trace.subscribe tr (fun ~time:_ _ -> incr events);
  let traced = run (Some tr, false) in
  fp_check
    (name ^ ": traced run identical to untraced")
    (fingerprint untraced) (fingerprint traced);
  Alcotest.(check bool) (name ^ ": trace saw events") true (!events > 1000);
  let monitored = run (None, true) in
  fp_check
    (name ^ ": monitored run identical to unmonitored")
    (fingerprint untraced) (fingerprint monitored);
  let both = run (Some (Icc_sim.Trace.create ()), true) in
  fp_check
    (name ^ ": traced+monitored run identical")
    (fingerprint untraced) (fingerprint both);
  (match (monitored.Icc_core.Runner.monitor, both.Icc_core.Runner.monitor) with
  | Some m1, Some m2 ->
      Alcotest.(check bool) (name ^ ": monitor clean") true
        (Icc_sim.Monitor.ok m1 && Icc_sim.Monitor.ok m2);
      Alcotest.(check bool)
        (name ^ ": monitor saw events")
        true
        (Icc_sim.Monitor.events_seen m1 > 100)
  | _ -> Alcotest.fail (name ^ ": monitor not attached"))

let with_observers (trace, monitored) base =
  {
    base with
    Icc_core.Runner.trace;
    monitor =
      (if monitored then
         Some (Icc_sim.Monitor.default_config ~delta:0.02 ())
       else None);
  }

let test_determinism_icc0 () =
  check_deterministic "icc0" (fun obs ->
      Icc_core.Runner.run (with_observers obs (scenario ~seed:11)))

let test_determinism_icc1 () =
  check_deterministic "icc1" (fun obs ->
      Icc_gossip.Icc1.run (with_observers obs (scenario ~seed:12)))

let test_determinism_icc2 () =
  check_deterministic "icc2" (fun obs ->
      Icc_rbc.Icc2.run (with_observers obs (scenario ~seed:13)))

(* -------------------------------------------------- run coverage *)

let test_run_event_coverage () =
  let tr = Icc_sim.Trace.create () in
  let kinds = Hashtbl.create 16 in
  Icc_sim.Trace.subscribe tr (fun ~time ev ->
      Hashtbl.replace kinds (Icc_sim.Trace.kind_of ev) ();
      (* every event serializes to one well-formed object *)
      let j = Icc_sim.Trace.to_json ~time ev in
      Alcotest.(check bool) "json object" true
        (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}'));
  ignore (Icc_gossip.Icc1.run { (scenario ~seed:21) with trace = Some tr });
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Hashtbl.mem kinds k))
    [
      "run-start"; "run-end"; "engine-dispatch"; "net-send"; "net-deliver";
      "gossip-publish"; "gossip-acquire"; "round-entry"; "propose";
      "notarize"; "finalize"; "beacon-share"; "commit"; "block-decided";
    ]

(* ------------------------------------------- online/offline agreement *)

(* `icc analyze` agrees with the `icc run` that wrote the trace: each
   golden n=16 run feeds one online Metrics and a JSONL buffer, and the
   buffer, parsed back and folded by Replay.fold, must tally the same.
   JSON times carry six decimals, so milestone times agree to 1e-6 and
   latencies (a difference of two times) to 2e-6. *)
let check_agreement name run =
  let tr = Icc_sim.Trace.create () in
  let online = Icc_sim.Metrics.create 16 in
  Icc_sim.Metrics.attach online tr;
  let buf = Buffer.create (1 lsl 20) in
  Icc_sim.Trace.subscribe tr (fun ~time ev ->
      Buffer.add_string buf (Icc_sim.Trace.to_json ~time ev);
      Buffer.add_char buf '\n');
  run tr;
  let load =
    Icc_sim.Replay.parse_lines
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check (list (pair int string))) (name ^ ": parses") []
    load.Icc_sim.Replay.errors;
  let offline = Icc_sim.Replay.fold load.Icc_sim.Replay.entries in
  let module M = Icc_sim.Metrics in
  let same_int what f =
    Alcotest.(check int) (name ^ ": " ^ what) (f online) (f offline)
  in
  Alcotest.(check (list (triple string int int))) (name ^ ": per-kind rows")
    (M.kinds online) (M.kinds offline);
  same_int "total msgs" M.total_msgs;
  same_int "total bytes" M.total_bytes;
  same_int "finalized blocks" M.finalized_blocks;
  let sent m = (Icc_sim.Replay.bandwidth_of m).Icc_sim.Replay.bw_sent_bytes in
  Alcotest.(check (array int)) (name ^ ": bytes sent per party") (sent online)
    (sent offline);
  let decided m = List.map fst (M.finalizations m) in
  Alcotest.(check (list int)) (name ^ ": decided rounds") (decided online)
    (decided offline);
  let time = Alcotest.(option (float 1e-6)) in
  let rows_on = M.rounds online and rows_off = M.rounds offline in
  Alcotest.(check (list int)) (name ^ ": rounds")
    (List.map (fun (r : M.round_row) -> r.r_round) rows_on)
    (List.map (fun (r : M.round_row) -> r.r_round) rows_off);
  List.iter2
    (fun (a : M.round_row) (b : M.round_row) ->
      let col what f =
        Alcotest.check time
          (Printf.sprintf "%s: round %d %s" name a.r_round what)
          (f a) (f b)
      in
      col "entry" (fun r -> r.M.r_entry);
      col "propose" (fun r -> r.M.r_propose);
      col "notarize" (fun r -> r.M.r_notarize);
      col "decided" (fun r -> r.M.r_decided))
    rows_on rows_off;
  Alcotest.(check (list (float 2e-6))) (name ^ ": latencies")
    (M.latencies online) (M.latencies offline)

let test_online_offline_agreement () =
  check_agreement "icc0" (fun tr -> Test_streams.golden16 tr);
  check_agreement "icc1" (fun tr ->
      Test_streams.golden16 ~run:(Icc_gossip.Icc1.run ?fanout:None) tr);
  check_agreement "icc0 wan" (fun tr ->
      Test_streams.golden16
        ~delay:(Icc_core.Runner.Wan { rtt_lo = 0.006; rtt_hi = 0.110 })
        tr);
  check_agreement "icc0 nemesis" Test_streams.golden16_nemesis

let suite =
  [
    Alcotest.test_case "no sink: inactive, emit is no-op" `Quick
      test_no_sink_inactive;
    Alcotest.test_case "sinks fire in subscription order" `Quick
      test_subscription_order;
    Alcotest.test_case "events keep emission order and time" `Quick
      test_event_order_and_time;
    Alcotest.test_case "core-only sinks skip detail events" `Quick
      test_core_sink_filtering;
    Alcotest.test_case "core/detail level assignment" `Quick test_levels;
    Alcotest.test_case "metrics driven through the bus" `Quick
      test_metrics_via_trace;
    Alcotest.test_case "per-round milestones keep first event" `Quick
      test_metrics_first_event_wins;
    Alcotest.test_case "percentile edge cases" `Quick
      test_percentile_edge_cases;
    Alcotest.test_case "json serialization shape" `Quick test_json_shape;
    Alcotest.test_case "json_escape escapes control chars" `Quick
      test_json_escape_control;
    Alcotest.test_case "of_json round-trips every constructor" `Quick
      test_json_round_trip;
    Alcotest.test_case "round-trip witness list is exhaustive" `Quick
      test_json_round_trip_is_exhaustive;
    Alcotest.test_case "of_json rejects malformed lines" `Quick
      test_json_malformed;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    Alcotest.test_case "icc0 traced = untraced" `Quick test_determinism_icc0;
    Alcotest.test_case "icc1 traced = untraced" `Quick test_determinism_icc1;
    Alcotest.test_case "icc2 traced = untraced" `Quick test_determinism_icc2;
    Alcotest.test_case "icc1 trace covers all layers" `Quick
      test_run_event_coverage;
    Alcotest.test_case "analyze agrees with run on the golden n=16 traces"
      `Quick test_online_offline_agreement;
  ]
