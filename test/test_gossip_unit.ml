(* Unit tests for the gossip sub-layer, driven directly. *)

let kit = Kit.make ~n:7 ~t:2 ()

type world = {
  engine : Icc_sim.Engine.t;
  metrics : Icc_sim.Metrics.t;
  gossip : Icc_gossip.Gossip.t;
  delivered : (int, Icc_core.Message.t list ref) Hashtbl.t;
}

let make_world ?(fanout = 3) ?(seed = 9) () =
  let env = Icc_sim.Transport.env ~n:7 () in
  let engine = env.Icc_sim.Transport.engine in
  let metrics = env.Icc_sim.Transport.metrics in
  let delivered = Hashtbl.create 8 in
  for i = 1 to 7 do
    Hashtbl.add delivered i (ref [])
  done;
  let gossip =
    Icc_gossip.Gossip.create ~fanout
      (Kit.transport_ctx kit ~t:2 ~rng:(Icc_sim.Rng.create seed) env
         ~delay:0.01 ~deliver:(fun ~dst msg ->
           let l = Hashtbl.find delivered dst in
           l := msg :: !l))
  in
  { engine; metrics; gossip; delivered }

let proposal ?(filler = 50_000) ~proposer () =
  let payload = { Icc_core.Types.commands = []; filler_size = filler } in
  let block = Kit.block ~payload ~round:1 ~proposer ~parent:None () in
  Icc_core.Message.Proposal
    {
      p_block = block;
      p_authenticator = Kit.authenticator kit block;
      p_parent_cert = None;
    }

let small_message () =
  Icc_core.Message.Notarization_share
    (Kit.notarization_share kit ~signer:1
       (Kit.block ~round:1 ~proposer:1 ~parent:None ()))

let test_large_artifact_reaches_everyone_once () =
  let w = make_world () in
  Icc_gossip.Gossip.publish w.gossip ~src:1 (proposal ~proposer:1 ());
  Icc_sim.Engine.run w.engine;
  Hashtbl.iter
    (fun party l ->
      Alcotest.(check int)
        (Printf.sprintf "party %d exactly once" party)
        1 (List.length !l))
    w.delivered

let test_small_message_floods () =
  let w = make_world () in
  Icc_gossip.Gossip.publish w.gossip ~src:3 (small_message ());
  Icc_sim.Engine.run w.engine;
  Hashtbl.iter
    (fun party l ->
      Alcotest.(check int)
        (Printf.sprintf "party %d exactly once" party)
        1 (List.length !l))
    w.delivered

let test_republish_is_noop () =
  let w = make_world () in
  let msg = proposal ~proposer:2 () in
  Icc_gossip.Gossip.publish w.gossip ~src:2 msg;
  Icc_sim.Engine.run w.engine;
  let before = Icc_sim.Metrics.total_msgs w.metrics in
  (* the protocol's echo re-broadcast: gossip deduplicates it entirely *)
  Icc_gossip.Gossip.publish w.gossip ~src:5 msg;
  Icc_gossip.Gossip.publish w.gossip ~src:2 msg;
  Icc_sim.Engine.run w.engine;
  Alcotest.(check int) "no extra traffic" before
    (Icc_sim.Metrics.total_msgs w.metrics)

let test_large_artifact_traffic_bounded () =
  (* with advert/request dissemination, total block-byte traffic is ~n
     transfers, not n^2: bytes stay below 3 * n * size *)
  let size = 50_000 in
  let w = make_world () in
  Icc_gossip.Gossip.publish w.gossip ~src:1 (proposal ~proposer:1 ~filler:size ());
  Icc_sim.Engine.run w.engine;
  let total = Icc_sim.Metrics.total_bytes w.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "bytes %d < 3*n*size" total)
    true
    (total < 3 * 7 * size)

let test_inject_reaches_target_then_spreads () =
  let w = make_world () in
  let msg = proposal ~proposer:4 () in
  (* Byzantine split delivery to party 6 only; party 6 re-gossips *)
  Icc_gossip.Gossip.inject w.gossip ~src:4 ~dst:6 msg;
  Icc_sim.Engine.run w.engine;
  let got =
    Hashtbl.fold
      (fun party l acc -> if !l <> [] then party :: acc else acc)
      w.delivered []
  in
  Alcotest.(check bool) "party 6 got it" true (List.mem 6 got);
  (* re-gossip spreads it to everyone except possibly the silent source *)
  Alcotest.(check bool)
    (Printf.sprintf "spread to %d parties" (List.length got))
    true
    (List.length got >= 6)

let suite =
  [
    Alcotest.test_case "large artifact once" `Quick
      test_large_artifact_reaches_everyone_once;
    Alcotest.test_case "small message floods" `Quick test_small_message_floods;
    Alcotest.test_case "republish no-op" `Quick test_republish_is_noop;
    Alcotest.test_case "traffic bounded" `Quick test_large_artifact_traffic_bounded;
    Alcotest.test_case "inject spreads" `Quick test_inject_reaches_target_then_spreads;
  ]
