(* Unit tests for the erasure-coded reliable broadcast, driven directly
   (outside the ICC round logic): honest dissemination, totality via
   fragment echo, and the inconsistent-proposer attack. *)

let kit = Kit.make ~n:7 ~t:2 ()

type world = {
  engine : Icc_sim.Engine.t;
  metrics : Icc_sim.Metrics.t;
  rbc : Icc_rbc.Rbc.t;
  delivered : (int, Icc_core.Message.t list ref) Hashtbl.t;
  active : (int, bool) Hashtbl.t;
}

let make_world ?(delay = 0.01) () =
  let env = Icc_sim.Transport.env ~n:7 () in
  let engine = env.Icc_sim.Transport.engine in
  let metrics = env.Icc_sim.Transport.metrics in
  let delivered = Hashtbl.create 8 in
  let active = Hashtbl.create 8 in
  for i = 1 to 7 do
    Hashtbl.add delivered i (ref []);
    Hashtbl.add active i true
  done;
  let rbc =
    Icc_rbc.Rbc.create
      (Kit.transport_ctx kit ~t:2 ~is_active:(Hashtbl.find active) env ~delay
         ~deliver:(fun ~dst msg ->
           let l = Hashtbl.find delivered dst in
           l := msg :: !l))
  in
  { engine; metrics; rbc; delivered; active }

let proposal ?(filler = 9000) ~proposer () =
  let payload = { Icc_core.Types.commands = []; filler_size = filler } in
  let block = Kit.block ~payload ~round:1 ~proposer ~parent:None () in
  Icc_core.Message.Proposal
    {
      p_block = block;
      p_authenticator = Kit.authenticator kit block;
      p_parent_cert = None;
    }

let count_deliveries w =
  Hashtbl.fold (fun _ l acc -> acc + List.length !l) w.delivered 0

let test_honest_dissemination_total () =
  let w = make_world () in
  let msg = proposal ~proposer:3 () in
  Icc_rbc.Rbc.tx_broadcast w.rbc ~src:3 msg;
  Icc_sim.Engine.run w.engine;
  (* every party (including the proposer) delivers exactly once *)
  Hashtbl.iter
    (fun party l ->
      Alcotest.(check int)
        (Printf.sprintf "party %d delivered once" party)
        1 (List.length !l))
    w.delivered;
  Alcotest.(check int) "seven total" 7 (count_deliveries w)

let test_reconstruction_with_crashed_parties () =
  let w = make_world () in
  Hashtbl.replace w.active 2 false;
  Hashtbl.replace w.active 5 false;
  Icc_rbc.Rbc.tx_broadcast w.rbc ~src:1 (proposal ~proposer:1 ());
  Icc_sim.Engine.run w.engine;
  List.iter
    (fun party ->
      Alcotest.(check int)
        (Printf.sprintf "live party %d delivered" party)
        1
        (List.length !(Hashtbl.find w.delivered party)))
    [ 1; 3; 4; 6; 7 ]

let test_non_proposer_cannot_open_instance () =
  (* party 4 broadcasting a block it did not propose (the echo case for a
     block obtained outside the RBC) must not open an RBC instance in party
     3's name: the bundle travels as a full Core broadcast instead *)
  let w = make_world () in
  Icc_rbc.Rbc.tx_broadcast w.rbc ~src:4 (proposal ~proposer:3 ());
  Icc_sim.Engine.run w.engine;
  Alcotest.(check int) "everyone gets the echoed bundle" 7 (count_deliveries w);
  Alcotest.(check int) "but no fragments circulate" 0
    (Icc_sim.Metrics.msgs_of_kind w.metrics "rbc-fragment")

let test_inconsistent_fragments_rejected () =
  (* A Byzantine proposer could sign a Merkle root over fragments that are
     not a Reed–Solomon codeword; the RBC's defence is the re-encoding
     check after reconstruction.  The malicious Send step cannot be forged
     through the public transport API (it always encodes honestly), so this
     exercises the defence primitive directly: garbage fragments decode to
     *something*, but re-encoding that never reproduces them. *)
  let garbage_frags =
    List.init 7 (fun i ->
        String.init 64 (fun j -> Char.chr ((i + (3 * j)) land 0xff)))
  in
  let some_decoding =
    Icc_erasure.Reed_solomon.decode ~k:3 ~n:7 ~data_size:192
      (List.filteri (fun i _ -> i < 3)
         (List.mapi (fun i f -> (i, f)) garbage_frags))
  in
  match some_decoding with
  | None -> Alcotest.fail "k fragments always decode to something"
  | Some data ->
      Alcotest.(check bool) "reencode rejects" false
        (Icc_erasure.Reed_solomon.reencode_matches ~k:3 ~n:7 ~data
           (List.mapi (fun i f -> (i, f)) garbage_frags))

let test_echo_budget_bounds_equivocating_proposer () =
  (* an equivocating proposer opens many distinct instances for the same
     round; honest parties echo at most two of them *)
  let w = make_world () in
  (* four different blocks from the same proposer in round 1 *)
  List.iter
    (fun filler -> Icc_rbc.Rbc.tx_broadcast w.rbc ~src:2 (proposal ~proposer:2 ~filler ()))
    [ 1000; 2000; 3000; 4000 ];
  Icc_sim.Engine.run w.engine;
  (* parties deliver at most the two instances they echoed plus any where
     they collected enough foreign fragments; proposer self-delivers all 4 *)
  Hashtbl.iter
    (fun party l ->
      if party <> 2 then
        Alcotest.(check bool)
          (Printf.sprintf "party %d bounded (%d)" party (List.length !l))
          true
          (List.length !l <= 4))
    w.delivered;
  Alcotest.(check int) "proposer delivered all" 4
    (List.length !(Hashtbl.find w.delivered 2))

let test_core_messages_pass_through () =
  let w = make_world () in
  let share =
    Icc_core.Message.Notarization_share
      (Kit.notarization_share kit ~signer:1
         (Kit.block ~round:1 ~proposer:1 ~parent:None ()))
  in
  Icc_rbc.Rbc.tx_broadcast w.rbc ~src:1 share;
  Icc_sim.Engine.run w.engine;
  Alcotest.(check int) "all seven got the share" 7 (count_deliveries w)

let verifies () =
  Icc_obs.Registry.value Icc_crypto.Counters.schnorr_verifies

let test_relabelled_fragment_rejected () =
  (* A Byzantine peer relabels the genuine fragment 4 as index 1 and gets
     it to party 1 first.  Its Merkle path is leaf 4's, so it must be
     rejected; otherwise it fills slot 1, blocks the genuine fragment 1 as
     a duplicate, and decoding fails the re-encode check for good. *)
  let w = make_world () in
  let msg = proposal ~proposer:3 () in
  let f4 = Icc_rbc.Rbc.fragment w.rbc ~src:3 msg 4 in
  Icc_rbc.Rbc.on_frag w.rbc ~dst:1 { f4 with Icc_rbc.Rbc.f_index = 1 };
  Icc_rbc.Rbc.tx_broadcast w.rbc ~src:3 msg;
  Icc_sim.Engine.run w.engine;
  Alcotest.(check int) "party 1 delivers" 1
    (List.length !(Hashtbl.find w.delivered 1));
  Alcotest.(check int) "everyone delivers" 7 (count_deliveries w)

let test_root_signature_verified_once () =
  (* Every fragment of an instance carries the same root signature: each
     party, the proposer included (it receives the echoes), verifies it
     exactly once. *)
  let w = make_world () in
  let before = verifies () in
  Icc_rbc.Rbc.tx_broadcast w.rbc ~src:3 (proposal ~proposer:3 ());
  Icc_sim.Engine.run w.engine;
  Alcotest.(check int) "seven deliveries" 7 (count_deliveries w);
  Alcotest.(check int) "one verify per party" 7 (verifies () - before)

let test_forged_root_signature_rejected () =
  (* Once party 1 has verified the root signature, fragments of the same
     instance (same round, proposer and root) with a forged signature are
     still checked and rejected: had the two forged fragments below been
     taken, party 1 would hold k = 3 fragments and deliver at once. *)
  let w = make_world () in
  let msg = proposal ~proposer:3 () in
  let frag = Icc_rbc.Rbc.fragment w.rbc ~src:3 msg in
  let forge (f : Icc_rbc.Rbc.frag) =
    let g = f.Icc_rbc.Rbc.f_sig in
    {
      f with
      Icc_rbc.Rbc.f_sig =
        {
          g with
          Icc_crypto.Schnorr.response =
            Icc_crypto.Group.scalar_add g.Icc_crypto.Schnorr.response 1;
        };
    }
  in
  let before = verifies () in
  Icc_rbc.Rbc.on_frag w.rbc ~dst:1 (frag 4);
  Icc_rbc.Rbc.on_frag w.rbc ~dst:1 (forge (frag 5));
  Icc_rbc.Rbc.on_frag w.rbc ~dst:1 (forge (frag 6));
  Icc_sim.Engine.run w.engine;
  Alcotest.(check int) "every distinct signature verified" 3
    (verifies () - before);
  Alcotest.(check int) "forged fragments not taken" 0
    (List.length !(Hashtbl.find w.delivered 1));
  Icc_rbc.Rbc.on_frag w.rbc ~dst:1 (frag 5);
  Icc_rbc.Rbc.on_frag w.rbc ~dst:1 (frag 6);
  Alcotest.(check int) "genuine ones are" 1
    (List.length !(Hashtbl.find w.delivered 1))

let suite =
  [
    Alcotest.test_case "honest dissemination" `Quick test_honest_dissemination_total;
    Alcotest.test_case "crashed parties" `Quick test_reconstruction_with_crashed_parties;
    Alcotest.test_case "non-proposer instance" `Quick
      test_non_proposer_cannot_open_instance;
    Alcotest.test_case "inconsistent fragments" `Quick
      test_inconsistent_fragments_rejected;
    Alcotest.test_case "echo budget" `Quick
      test_echo_budget_bounds_equivocating_proposer;
    Alcotest.test_case "core pass-through" `Quick test_core_messages_pass_through;
    Alcotest.test_case "relabelled fragment rejected" `Quick
      test_relabelled_fragment_rejected;
    Alcotest.test_case "root signature verified once" `Quick
      test_root_signature_verified_once;
    Alcotest.test_case "forged root signature rejected" `Quick
      test_forged_root_signature_rejected;
  ]
