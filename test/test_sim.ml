(* Simulator substrate tests: rng, engine, network, metrics. *)

let test_rng_deterministic () =
  let a = Icc_sim.Rng.create 42 and b = Icc_sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Icc_sim.Rng.bits61 a) (Icc_sim.Rng.bits61 b)
  done

let test_rng_int_bounds () =
  let r = Icc_sim.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Icc_sim.Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_shuffle_permutes () =
  let r = Icc_sim.Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Icc_sim.Rng.shuffle_in_place r arr;
  Alcotest.(check (list int)) "same multiset"
    (List.init 20 Fun.id)
    (List.sort compare (Array.to_list arr))

let test_engine_runs_in_order () =
  let e = Icc_sim.Engine.create () in
  let log = ref [] in
  Icc_sim.Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log);
  Icc_sim.Engine.schedule e ~delay:1. (fun () ->
      log := 1 :: !log;
      Icc_sim.Engine.schedule e ~delay:0.5 (fun () -> log := 15 :: !log));
  Icc_sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 15; 2 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 2. (Icc_sim.Engine.now e)

let test_engine_until () =
  let e = Icc_sim.Engine.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    Icc_sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr hits)
  done;
  Icc_sim.Engine.run ~until:5.5 e;
  Alcotest.(check int) "only first five" 5 !hits;
  Alcotest.(check (float 1e-9)) "clock parked at until" 5.5 (Icc_sim.Engine.now e);
  Icc_sim.Engine.run e;
  Alcotest.(check int) "rest after resume" 10 !hits

let test_engine_rejects_past () =
  let e = Icc_sim.Engine.create () in
  Icc_sim.Engine.schedule e ~delay:1. (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument
           "Engine.schedule_at: time 0.500000 is in the past (now 1.000000)")
        (fun () -> Icc_sim.Engine.schedule_at e ~time:0.5 (fun () -> ()));
      Alcotest.check_raises "nan"
        (Invalid_argument "Engine.schedule_at: time is nan")
        (fun () -> Icc_sim.Engine.schedule e ~delay:Float.nan (fun () -> ())));
  Icc_sim.Engine.run e

let make_net ?(n = 4) ?(delay = 0.1) ?hold_until ?nemesis () =
  let env = Icc_sim.Transport.env ~n () in
  let trace = env.Icc_sim.Transport.trace in
  let fault =
    Option.map
      (Icc_sim.Fault.create ~rng:(Icc_sim.Rng.create 1) ~trace)
      nemesis
  in
  let net =
    Icc_sim.Network.create env.Icc_sim.Transport.engine ~n ~trace
      ~delay_model:(Fixed delay) ?hold_until ?fault ()
  in
  (env.Icc_sim.Transport.engine, env.Icc_sim.Transport.metrics, net)

let test_network_broadcast_delivery () =
  let e, m, net = make_net () in
  let got : (int * string) list ref = ref [] in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ msg ->
      got := (dst, msg) :: !got);
  Icc_sim.Network.broadcast net ~src:1 ~size:100 ~kind:"blk" "hello";
  Icc_sim.Engine.run e;
  Alcotest.(check int) "all four got it" 4 (List.length !got);
  (* traffic counts only the 3 remote copies *)
  Alcotest.(check int) "bytes" 300 (Icc_sim.Metrics.total_bytes m);
  Alcotest.(check int) "msgs" 3 (Icc_sim.Metrics.total_msgs m);
  Alcotest.(check int) "kind" 3 (Icc_sim.Metrics.msgs_of_kind m "blk")

let test_network_self_delivery_immediate () =
  let e, _, net = make_net ~delay:5. () in
  let at = ref nan in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ _ ->
      if dst = 2 then at := Icc_sim.Engine.now e);
  Icc_sim.Network.unicast net ~src:2 ~dst:2 ~size:10 ~kind:"x" "m";
  Icc_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "immediate" 0. !at

let test_network_hold_until () =
  let e, _, net = make_net ~delay:0.1 ~hold_until:10. () in
  let at = ref nan in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ _ ->
      if dst = 2 then at := Icc_sim.Engine.now e);
  Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:10 ~kind:"x" "m";
  Icc_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "released at 10 + delay" 10.1 !at

let test_network_link_hold () =
  (* partition: messages into party 3 held until t=5 *)
  let e, _, net =
    make_net ~delay:0.1
      ~nemesis:
        [ Icc_sim.Fault.partition ~from_:0. ~until:5. [ [ 1; 2; 4 ]; [ 3 ] ] ]
      ()
  in
  let times = ref [] in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ _ ->
      times := (dst, Icc_sim.Engine.now e) :: !times);
  Icc_sim.Network.broadcast net ~src:1 ~size:1 ~kind:"x" "m";
  Icc_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "into 3 held" 5.1 (List.assoc 3 !times);
  Alcotest.(check (float 1e-9)) "into 2 normal" 0.1 (List.assoc 2 !times)

let test_network_send_time_pricing () =
  (* Regression pin for the release semantics documented on
     Network.create: every transmission is priced at send time — its delay
     is sampled and its release floor read at the moment of unicast.  A
     partition window that ends or starts afterwards never re-prices a
     message already held or already in flight. *)
  let e, _, net =
    make_net ~delay:3.
      ~nemesis:
        [
          (* 1 -> 2 held over [0, 10) *)
          Icc_sim.Fault.partition ~from_:0. ~until:10. [ [ 1 ]; [ 2 ] ];
          (* 1 -> 3 healed at 4, cut again from 4.5 *)
          Icc_sim.Fault.partition ~from_:0. ~until:4. [ [ 1 ]; [ 3 ] ];
          Icc_sim.Fault.partition ~from_:4.5 ~until:50. [ [ 1 ]; [ 3 ] ];
        ]
      ()
  in
  let times = ref [] in
  Icc_sim.Network.set_handler net (fun ~dst:_ ~src:_ msg ->
      times := (msg, Icc_sim.Engine.now e) :: !times);
  let at msg = List.assoc msg !times in
  Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:1 ~kind:"x" "held";
  Icc_sim.Engine.schedule_at e ~time:4. (fun () ->
      Icc_sim.Network.unicast net ~src:1 ~dst:3 ~size:1 ~kind:"x" "post-heal";
      Icc_sim.Network.unicast net ~src:1 ~dst:3 ~size:1 ~kind:"x" "escaped");
  Icc_sim.Engine.run ~until:60. e;
  Alcotest.(check (float 1e-9)) "held message released at the window end" 13.
    (at "held");
  Alcotest.(check (float 1e-9)) "send after heal is unheld" 7.
    (at "post-heal");
  Alcotest.(check (float 1e-9)) "a later partition does not recapture" 7.
    (at "escaped")

let test_wan_matrix_symmetric () =
  let r = Icc_sim.Rng.create 1 in
  let m = Icc_sim.Network.wan_matrix r ~n:13 ~rtt_lo:0.006 ~rtt_hi:0.110 in
  for i = 1 to 13 do
    for j = 1 to 13 do
      Alcotest.(check (float 1e-12)) "symmetric" m.(i).(j) m.(j).(i);
      if i <> j then
        Alcotest.(check bool) "in range" true
          (m.(i).(j) >= 0.003 && m.(i).(j) <= 0.055)
    done
  done

let test_metrics_percentile () =
  let l = [ 5.; 1.; 3.; 2.; 4. ] in
  Alcotest.(check (float 1e-9)) "p50" 3. (Icc_sim.Metrics.percentile 50. l);
  Alcotest.(check (float 1e-9)) "p100" 5. (Icc_sim.Metrics.percentile 100. l);
  Alcotest.(check (float 1e-9)) "mean" 3. (Icc_sim.Metrics.mean l)

let prop_engine_fifo_at_same_time =
  QCheck.Test.make ~name:"engine preserves insertion order at equal times"
    ~count:50 (QCheck.int_range 2 30) (fun k ->
      let e = Icc_sim.Engine.create () in
      let log = ref [] in
      for i = 0 to k - 1 do
        Icc_sim.Engine.schedule e ~delay:1. (fun () -> log := i :: !log)
      done;
      Icc_sim.Engine.run e;
      List.rev !log = List.init k Fun.id)

(* Random mixes of same-time bursts, distinct times, handler-scheduled
   [delay:0] events and events on four lanes, run in slices cut by [until]
   and [max_events] stops, with an outside event scheduled at each resume.
   A lane event is due on the burst grid (now + 0, 0.5, 1 or 1.5), raised
   to its lane's tail when that is later; a lane schedule before the tail
   must raise and take no seq, and a lane's [fire] must see the cell its
   event was given.  Every event ever scheduled takes the next seq at a
   time no earlier than the clock, so the whole dispatch sequence must be
   the stable sort of all scheduled events by (time, seq). *)
let prop_engine_order =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 40) (int_range 0 13))
        (array_size (return 16) (int_range 0 3))
        (list_size (int_range 0 6) (pair bool (int_range 0 20))))
  in
  let print (initial, kids, stops) =
    QCheck.Print.(
      triple (list int) (array int) (list (pair bool int)))
      (initial, kids, stops)
  in
  QCheck.Test.make ~name:"engine order matches stable sort"
    ~count:300 (QCheck.make ~print gen) (fun (initial, kids, stops) ->
      let module E = Icc_sim.Engine in
      let e = E.create () in
      (* Codes 0-3 are delays shared by many events (0 is [delay:0]);
         4-9 give each event a delay of its own; 10-13 put the event on
         lane [id mod 4] at a delay of 0.5 * (code - 10). *)
      let delay_of ~id code =
        if code < 4 then 0.5 *. float_of_int code
        else if code < 10 then 0.37 +. (0.001 *. float_of_int id)
        else 0.5 *. float_of_int (code - 10)
      in
      let scheduled = ref [] and log = ref [] and obs = ref [] in
      let next = ref 0 and raised_ok = ref true and cells_ok = ref true in
      (* per lane, the (id, cell) of each queued event *)
      let queues = Array.init 4 (fun _ -> Queue.create ()) in
      let handle = ref (fun (_ : int) -> ()) in
      let lanes =
        Array.init 4 (fun k ->
            E.lane e (fun () ->
                let id, cell = Queue.pop queues.(k) in
                cells_ok := !cells_ok && E.fired_cell e = cell;
                !handle id))
      in
      let rec sched code =
        let id = !next in
        incr next;
        let delay = delay_of ~id code in
        let time = E.now e +. delay in
        if code < 10 then begin
          scheduled := (time, id) :: !scheduled;
          E.schedule e ~delay (fun () -> run id)
        end
        else begin
          let lane = lanes.(id mod 4) in
          let tail = E.lane_tail e lane in
          if time < tail then
            raised_ok :=
              !raised_ok
              && (match E.schedule_lane e lane ~time with
                 | _ -> false
                 | exception Invalid_argument _ -> true);
          let time = Float.max time tail in
          scheduled := (time, id) :: !scheduled;
          Queue.push (id, E.schedule_lane e lane ~time) queues.(id mod 4)
        end
      and run id =
        log := id :: !log;
        if !next < 300 then
          for k = 1 to kids.(id mod 16) do
            sched (((id * 7) + k) mod 14)
          done
      in
      handle := run;
      E.set_observer e (fun ~time ~seq -> obs := (time, seq) :: !obs);
      List.iter sched initial;
      let consistent () =
        E.processed e = List.length !log
        && E.pending e = !next - List.length !log
      in
      let slices_ok =
        List.for_all
          (fun (by_until, x) ->
            let before = E.processed e in
            let ok =
              if by_until then begin
                let until = E.now e +. (0.25 *. float_of_int x) in
                E.run ~until e;
                (* exactly the events due by [until] have run *)
                E.processed e
                = List.length (List.filter (fun (t, _) -> t <= until) !scheduled)
              end
              else begin
                E.run ~max_events:(before + x) e;
                E.processed e <= before + x
                && (E.processed e = before + x || E.pending e = 0)
              end
            in
            let ok = ok && consistent () in
            sched (x mod 14);
            ok)
          stops
      in
      E.run e;
      let expected =
        List.stable_sort
          (fun (ta, sa) (tb, sb) ->
            match Float.compare ta tb with 0 -> Int.compare sa sb | c -> c)
          (List.rev !scheduled)
      in
      slices_ok && consistent () && E.pending e = 0 && !raised_ok && !cells_ok
      && List.rev !log = List.map snd expected
      && List.rev !obs = expected)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "broadcast delivery" `Quick test_network_broadcast_delivery;
    Alcotest.test_case "self delivery" `Quick test_network_self_delivery_immediate;
    Alcotest.test_case "hold until" `Quick test_network_hold_until;
    Alcotest.test_case "link hold" `Quick test_network_link_hold;
    Alcotest.test_case "send-time pricing of delay and holds" `Quick
      test_network_send_time_pricing;
    Alcotest.test_case "wan matrix" `Quick test_wan_matrix_symmetric;
    Alcotest.test_case "metrics percentile" `Quick test_metrics_percentile;
    QCheck_alcotest.to_alcotest prop_engine_fifo_at_same_time;
    QCheck_alcotest.to_alcotest prop_engine_order;
  ]
