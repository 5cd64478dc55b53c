(* Unit tests for the composable Byzantine adversary layer (DESIGN.md
   §3.8): script constructors, static analysis, JSON parsing, directive
   activation and budgets, both interposition surfaces, and stream
   determinism. *)

module A = Icc_sim.Adversary

let collect_trace () =
  let tr = Icc_sim.Trace.create () in
  let events = ref [] in
  Icc_sim.Trace.subscribe ~all:true tr (fun ~time:_ ev -> events := ev :: !events);
  (tr, fun () -> List.rev !events)

let make ?classify ?(seed = 7) ?(n = 7) script =
  let tr, events = collect_trace () in
  let adv =
    A.create ~rng:(Icc_sim.Rng.create seed) ~trace:tr ~n ?classify script
  in
  (adv, events)

(* ------------------------------------------------ script constructors *)

let test_constructors () =
  (match (A.equivocate 3).A.action with
  | A.Equivocate { noisy } -> Alcotest.(check bool) "quiet default" false noisy
  | _ -> Alcotest.fail "expected Equivocate");
  (match (A.withhold 2).A.action with
  | A.Withhold { beacon; notar; final; p } ->
      Alcotest.(check bool) "no flag: beacon" true beacon;
      Alcotest.(check bool) "no flag: notar" true notar;
      Alcotest.(check bool) "no flag: final" true final;
      Alcotest.(check (float 0.)) "p defaults to 1" 1.0 p
  | _ -> Alcotest.fail "expected Withhold");
  (match (A.withhold ~notar:true 2).A.action with
  | A.Withhold { beacon; notar; final; _ } ->
      Alcotest.(check bool) "flagged: beacon off" false beacon;
      Alcotest.(check bool) "flagged: notar on" true notar;
      Alcotest.(check bool) "flagged: final off" false final
  | _ -> Alcotest.fail "expected Withhold");
  let d = A.adaptive ~on_round:5 ~rank:0 ~max_corrupt:2 (A.Equivocate { noisy = true }) in
  Alcotest.(check bool) "rank wins over on_round" true (d.A.trigger = A.On_rank 0);
  Alcotest.(check bool) "adaptive targets Any" true (d.A.who = A.Any);
  Alcotest.(check int) "budget" 2 d.A.max_corrupt

let test_static_analysis () =
  let script =
    [
      A.equivocate 5;
      A.withhold 2;
      A.equivocate 2;
      A.crash_window ~from_:3. ~until:8. 4;
      A.crash_window ~from_:10. ~until:12. 1;
      A.adaptive ~rank:0 ~max_corrupt:2 (A.Equivocate { noisy = true });
    ]
  in
  Alcotest.(check (list int))
    "static corrupt: named parties, deduped, ascending (Any excluded)"
    [ 1; 2; 4; 5 ] (A.static_corrupt script);
  Alcotest.(check (list (pair (float 0.) int)))
    "crash wakes: (until, party) sorted by time"
    [ (8., 4); (12., 1) ]
    (A.static_crash_wakes script)

(* ------------------------------------------------------- JSON scripts *)

let test_script_of_json () =
  let src =
    {|[
      {"adversary":"equivocate","party":3,"noisy":true},
      {"adversary":"withhold","party":2,"notar":true,"p":0.5},
      {"adversary":"censor","party":2,"dsts":[1,4]},
      {"adversary":"delay","party":1,"by":0.4,"from":10,"until":20},
      {"adversary":"crash","party":2,"from":5,"until":10},
      {"adversary":"straggle","party":4,"p":0.3},
      {"adversary":"equivocate","rank":0,"max":2}
    ]|}
  in
  match A.script_of_json src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok script ->
      Alcotest.(check int) "seven directives" 7 (List.length script);
      (match List.nth script 0 with
      | { A.who = A.Party 3; action = A.Equivocate { noisy = true }; _ } -> ()
      | _ -> Alcotest.fail "directive 0");
      (match List.nth script 1 with
      | {
       A.who = A.Party 2;
       action = A.Withhold { beacon = false; notar = true; final = false; p };
       _;
      } ->
          Alcotest.(check (float 0.)) "withhold p" 0.5 p
      | _ -> Alcotest.fail "directive 1");
      (match List.nth script 3 with
      | { A.who = A.Party 1; from_ = 10.; until = 20.; action = A.Delay { by }; _ }
        ->
          Alcotest.(check (float 0.)) "delay by" 0.4 by
      | _ -> Alcotest.fail "directive 3");
      (match List.nth script 6 with
      | { A.who = A.Any; trigger = A.On_rank 0; max_corrupt = 2; _ } -> ()
      | _ -> Alcotest.fail "directive 6");
      Alcotest.(check (list int)) "statics from json" [ 1; 2; 3; 4 ]
        (A.static_corrupt script)

let test_script_of_json_rejects () =
  let bad s =
    match A.script_of_json s with Error _ -> true | Ok _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (bad s))
    [
      {|[{"adversary":"no-such-strategy","party":1}]|};
      {|[{"adversary":"crash","party":1}]|};
      {|[{"adversary":"equivocate","rank":0}]|};
      {|[{"adversary":"withhold","party":2.7}]|};
      {|[{"adversary":"censor","party":2,"dsts":[1.5]}]|};
      {|not json|};
    ]

(* --------------------------------------------- activation and budgets *)

let test_static_activation_and_withholding () =
  let adv, events = make [ A.withhold ~notar:true 2 ] in
  Alcotest.(check bool) "party 2 withholds notar" true
    (A.withholds adv ~now:1. ~party:2 ~round:1 A.Notar);
  Alcotest.(check bool) "party 2 keeps final" false
    (A.withholds adv ~now:1. ~party:2 ~round:1 A.Final);
  Alcotest.(check bool) "party 3 untouched" false
    (A.withholds adv ~now:1. ~party:3 ~round:1 A.Notar);
  Alcotest.(check (list int)) "corrupted = static" [ 2 ] (A.corrupted adv);
  let withheld =
    List.filter_map
      (function
        | Icc_sim.Trace.Adv_withhold { party; round; kind } ->
            Some (party, round, kind)
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list (triple int int string)))
    "one adv-withhold event" [ (2, 1, "notarization-share") ] withheld

let test_equivocation_query () =
  let adv, _ = make [ A.equivocate ~noisy:true 4 ] in
  Alcotest.(check (option bool)) "party 4 noisy" (Some true)
    (A.equivocation adv ~now:0. ~party:4);
  Alcotest.(check (option bool)) "party 1 honest" None
    (A.equivocation adv ~now:0. ~party:1)

let test_adaptive_budget () =
  let adv, events =
    make [ A.adaptive ~rank:0 ~max_corrupt:1 (A.Equivocate { noisy = false }) ]
  in
  (* party 5 is the first rank-0 leader seen: the budget of one goes to it *)
  A.note_round adv ~now:0. ~party:3 ~round:1 ~rank:2;
  A.note_round adv ~now:0. ~party:5 ~round:1 ~rank:0;
  A.note_round adv ~now:1. ~party:6 ~round:2 ~rank:0;
  Alcotest.(check (option bool)) "leader 5 corrupted" (Some false)
    (A.equivocation adv ~now:1. ~party:5);
  Alcotest.(check (option bool)) "leader 6 spared (budget spent)" None
    (A.equivocation adv ~now:1. ~party:6);
  Alcotest.(check (list int)) "corrupted tracks activation" [ 5 ]
    (A.corrupted adv);
  let announced =
    List.filter_map
      (function
        | Icc_sim.Trace.Adv_corrupt { party; round; _ } -> Some (party, round)
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list (pair int int))) "one adv-corrupt" [ (5, 1) ] announced

(* ------------------------------------------------------ network surface *)

let test_on_send_censor_delay () =
  let adv, events =
    make [ A.censor ~dsts:[ 1; 4 ] 2; A.delay ~by:0.25 3 ] in
  let v = A.on_send adv ~now:1. ~src:2 ~dst:1 ~kind:"blk" in
  Alcotest.(check bool) "censored dst dropped" true v.A.av_drop;
  let v = A.on_send adv ~now:1. ~src:2 ~dst:5 ~kind:"blk" in
  Alcotest.(check bool) "other dst passes" false v.A.av_drop;
  let v = A.on_send adv ~now:1. ~src:3 ~dst:1 ~kind:"prop" in
  Alcotest.(check (float 0.)) "stealthy delay" 0.25 v.A.av_delay;
  let v = A.on_send adv ~now:1. ~src:5 ~dst:1 ~kind:"prop" in
  Alcotest.(check (float 0.)) "honest src undelayed" 0. v.A.av_delay;
  let censored =
    List.exists
      (function Icc_sim.Trace.Adv_censor _ -> true | _ -> false)
      (events ())
  in
  Alcotest.(check bool) "adv-censor emitted" true censored

let test_crash_window () =
  let adv, _ = make [ A.crash_window ~from_:5. ~until:10. 3 ] in
  Alcotest.(check bool) "before window" false (A.crashed_now adv ~now:4.9 ~party:3);
  Alcotest.(check bool) "inside window" true (A.crashed_now adv ~now:7. ~party:3);
  Alcotest.(check bool) "after window" false (A.crashed_now adv ~now:10. ~party:3);
  Alcotest.(check bool) "other party" false (A.crashed_now adv ~now:7. ~party:2);
  let v = A.on_send adv ~now:7. ~src:3 ~dst:1 ~kind:"blk" in
  Alcotest.(check bool) "sends dropped while crashed" true v.A.av_drop

let test_straggle_extremes () =
  let adv, _ = make [ A.straggle ~p:1.0 2; A.straggle ~p:0.0 3 ] in
  for i = 1 to 20 do
    let v = A.on_send adv ~now:(float_of_int i) ~src:2 ~dst:1 ~kind:"share" in
    Alcotest.(check bool) "p=1 always drops" true v.A.av_drop;
    let v = A.on_send adv ~now:(float_of_int i) ~src:3 ~dst:1 ~kind:"share" in
    Alcotest.(check bool) "p=0 never drops" false v.A.av_drop
  done

let test_classify_withholding () =
  (* the baseline surface: no party hooks, shares suppressed at the wire *)
  let classify = function
    | "prepare" -> Some A.Notar
    | "commit" -> Some A.Final
    | _ -> None
  in
  let adv, _ = make ~classify [ A.withhold ~notar:true 2 ] in
  let v = A.on_send adv ~now:1. ~src:2 ~dst:3 ~kind:"prepare" in
  Alcotest.(check bool) "classified notar dropped" true v.A.av_drop;
  let v = A.on_send adv ~now:1. ~src:2 ~dst:3 ~kind:"commit" in
  Alcotest.(check bool) "final class not withheld" false v.A.av_drop;
  let v = A.on_send adv ~now:1. ~src:2 ~dst:3 ~kind:"pre-prepare" in
  Alcotest.(check bool) "unclassified passes" false v.A.av_drop

(* --------------------------------------------------------- determinism *)

let test_probabilistic_stream_determinism () =
  let run seed =
    let adv, _ =
      make ~seed [ A.withhold ~p:0.5 2; A.straggle ~p:0.4 3 ] in
    let draws = ref [] in
    for round = 1 to 30 do
      List.iter
        (fun cls ->
          draws := A.withholds adv ~now:(float_of_int round) ~party:2 ~round cls
                   :: !draws)
        [ A.Beacon; A.Notar; A.Final ];
      let v =
        A.on_send adv ~now:(float_of_int round) ~src:3 ~dst:1 ~kind:"blk"
      in
      draws := v.A.av_drop :: !draws
    done;
    !draws
  in
  Alcotest.(check (list bool)) "same seed, same stream" (run 11) (run 11);
  Alcotest.(check bool) "different seed diverges" true (run 11 <> run 12);
  Alcotest.(check bool) "p=0.5 actually mixes" true
    (List.exists (fun b -> b) (run 11) && List.exists not (run 11))

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "static analysis" `Quick test_static_analysis;
    Alcotest.test_case "json scripts" `Quick test_script_of_json;
    Alcotest.test_case "json rejects" `Quick test_script_of_json_rejects;
    Alcotest.test_case "static withholding" `Quick
      test_static_activation_and_withholding;
    Alcotest.test_case "equivocation query" `Quick test_equivocation_query;
    Alcotest.test_case "adaptive budget" `Quick test_adaptive_budget;
    Alcotest.test_case "censor + delay" `Quick test_on_send_censor_delay;
    Alcotest.test_case "crash window" `Quick test_crash_window;
    Alcotest.test_case "straggle extremes" `Quick test_straggle_extremes;
    Alcotest.test_case "classify withholding" `Quick test_classify_withholding;
    Alcotest.test_case "stream determinism" `Quick
      test_probabilistic_stream_determinism;
  ]
