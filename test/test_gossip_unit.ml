(* Unit tests for the gossip sub-layer, driven directly. *)

let kit = Kit.make ~n:7 ~t:2 ()

type world = {
  engine : Icc_sim.Engine.t;
  metrics : Icc_sim.Metrics.t;
  gossip : Icc_gossip.Gossip.t;
  delivered : (int, Icc_core.Message.t list ref) Hashtbl.t;
}

let make_world ?(fanout = 3) ?(seed = 9) ?trace () =
  let env = Icc_sim.Transport.env ?trace ~n:7 () in
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

let beacon_share =
  lazy
    (Icc_crypto.Threshold_vuf.sign_share
       kit.Kit.system.Icc_crypto.Keygen.beacon
       (Kit.key kit 3).Icc_crypto.Keygen.beacon_key "beacon text")

(* 300 distinct artifacts, more than the 256 ids the layer starts with, so
   the intern table and every party's arrays grow mid-run.  Every tenth is
   a block, so ids on both sides of the growth take the advert/request
   path. *)
let test_many_artifacts_reach_everyone_once () =
  let trace = Icc_sim.Trace.create () in
  let acquired = ref [] in
  Icc_sim.Trace.subscribe trace (fun ~time:_ ev ->
      match ev with
      | Icc_sim.Trace.Gossip_acquire { artifact; _ } ->
          acquired := artifact :: !acquired
      | _ -> ());
  let w = make_world ~trace () in
  let count = 300 in
  let msgs =
    List.init count (fun i ->
        if i mod 10 = 0 then proposal ~filler:(100 + i) ~proposer:(1 + (i mod 7)) ()
        else
          Icc_core.Message.Beacon_share
            { b_round = i; b_signer = 3; b_share = Lazy.force beacon_share })
  in
  (* all published before any is relayed, so copies of the first 256 are
     still in flight when the arrays grow *)
  List.iteri
    (fun i msg -> Icc_gossip.Gossip.publish w.gossip ~src:(1 + (i mod 7)) msg)
    msgs;
  Icc_sim.Engine.run w.engine;
  let names = List.map Icc_gossip.Gossip.artifact_id_of msgs in
  Alcotest.(check int) "distinct artifacts" count
    (List.length (List.sort_uniq String.compare names));
  Hashtbl.iter
    (fun party l ->
      Alcotest.(check (list string))
        (Printf.sprintf "party %d got each artifact exactly once" party)
        (List.sort String.compare names)
        (List.sort String.compare
           (List.map Icc_gossip.Gossip.artifact_id_of !l)))
    w.delivered;
  Alcotest.(check bool) "acquire events name published artifacts" true
    (List.for_all (fun a -> List.mem a names) !acquired)

(* Resync control is never deduplicated: the same summary sent twice is
   delivered twice, and only to its destination. *)
let test_repeated_summary_delivered_twice () =
  let w = make_world () in
  let summary =
    Icc_core.Message.Pool_summary { ps_party = 1; ps_round = 4; ps_kmax = 3 }
  in
  Icc_gossip.Gossip.inject w.gossip ~src:1 ~dst:2 summary;
  Icc_gossip.Gossip.inject w.gossip ~src:1 ~dst:2 summary;
  Icc_sim.Engine.run w.engine;
  Hashtbl.iter
    (fun party l ->
      Alcotest.(check int)
        (Printf.sprintf "party %d deliveries" party)
        (if party = 2 then 2 else 0)
        (List.length !l))
    w.delivered

(* Trace events name each artifact by [artifact_id_of], not by the int
   the wire carries. *)
let test_trace_names_artifacts () =
  let trace = Icc_sim.Trace.create () in
  let seen = ref [] in
  Icc_sim.Trace.subscribe trace (fun ~time:_ ev ->
      match ev with
      | Icc_sim.Trace.Gossip_publish { artifact; _ } ->
          seen := ("publish", artifact) :: !seen
      | Icc_sim.Trace.Gossip_request { artifact; _ } ->
          seen := ("request", artifact) :: !seen
      | Icc_sim.Trace.Gossip_acquire { artifact; _ } ->
          seen := ("acquire", artifact) :: !seen
      | _ -> ());
  let w = make_world ~trace () in
  let block = proposal ~proposer:2 () and share = small_message () in
  Icc_gossip.Gossip.publish w.gossip ~src:2 block;
  Icc_gossip.Gossip.publish w.gossip ~src:5 share;
  Icc_sim.Engine.run w.engine;
  let names =
    List.map Icc_gossip.Gossip.artifact_id_of [ block; share ]
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " events seen") true
        (List.mem_assoc kind !seen))
    [ "publish"; "request"; "acquire" ];
  List.iter
    (fun (kind, artifact) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s" kind artifact)
        true (List.mem artifact names))
    !seen;
  Alcotest.(check bool) "requests name the block" true
    (List.for_all
       (fun (kind, artifact) ->
         kind <> "request" || artifact = Icc_gossip.Gossip.artifact_id_of block)
       !seen)

let suite =
  [
    Alcotest.test_case "large artifact once" `Quick
      test_large_artifact_reaches_everyone_once;
    Alcotest.test_case "small message floods" `Quick test_small_message_floods;
    Alcotest.test_case "republish no-op" `Quick test_republish_is_noop;
    Alcotest.test_case "traffic bounded" `Quick test_large_artifact_traffic_bounded;
    Alcotest.test_case "inject spreads" `Quick test_inject_reaches_target_then_spreads;
    Alcotest.test_case "300 artifacts once each" `Quick
      test_many_artifacts_reach_everyone_once;
    Alcotest.test_case "repeated summary delivered twice" `Quick
      test_repeated_summary_delivered_twice;
    Alcotest.test_case "trace names artifacts" `Quick test_trace_names_artifacts;
  ]
