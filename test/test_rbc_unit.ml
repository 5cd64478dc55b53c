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
  events : Icc_sim.Trace.event list ref; (* every trace event, newest first *)
}

let make_world ?(delay = 0.01) () =
  let trace = Icc_sim.Trace.create () in
  let events = ref [] in
  Icc_sim.Trace.subscribe ~all:true trace (fun ~time:_ ev ->
      events := ev :: !events);
  let env = Icc_sim.Transport.env ~trace ~n:7 () in
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
  { engine; metrics; rbc; delivered; active; events }

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

(* RBC events at [party], oldest first. *)
let rbc_events w ~party =
  List.filter
    (fun (ev : Icc_sim.Trace.event) ->
      match ev with
      | Rbc_fragment { party = p; _ } | Rbc_echo { party = p; _ }
      | Rbc_reconstruct { party = p; _ } | Rbc_inconsistent { party = p; _ } ->
          p = party
      | _ -> false)
    (List.rev !(w.events))

let test_inconsistent_fragments_rejected () =
  (* A Byzantine proposer encodes a valid proposal, swaps parity fragment
     6 for garbage, and signs the Merkle root over that set, which is not
     a Reed–Solomon codeword.  Every fragment's path reaches the signed
     root, so all are admitted, and fragments 2, 3 and 4 decode to the
     genuine proposal; but its re-encoding differs at 6, which party 1
     does not hold, so the reconstruct check marks the instance bad and
     nothing is delivered. *)
  let w = make_world () in
  let round = 1 and proposer = 3 in
  let coded =
    Icc_erasure.Reed_solomon.encode ~k:3 ~n:7
      (Icc_rbc.Rbc.serialize (proposal ~proposer ()))
  in
  let bytes = Array.copy coded.Icc_erasure.Reed_solomon.fragments in
  bytes.(6) <- String.map (fun c -> Char.chr (Char.code c lxor 0x5a)) bytes.(6);
  let tree = Icc_crypto.Merkle.tree bytes in
  let root = Icc_crypto.Merkle.root tree in
  let f_sig =
    Icc_crypto.Schnorr.sign (Kit.key kit proposer).Icc_crypto.Keygen.auth
      (Icc_rbc.Rbc.root_text ~round ~proposer root)
  in
  let frag i =
    {
      Icc_rbc.Rbc.f_round = round;
      f_proposer = proposer;
      f_root = root;
      f_index = i;
      f_data_size = coded.Icc_erasure.Reed_solomon.data_size;
      f_modeled_total = 9000;
      f_bytes = bytes.(i);
      f_proof = Icc_crypto.Merkle.proof tree i;
      f_sig;
    }
  in
  List.iter (fun i -> Icc_rbc.Rbc.on_frag w.rbc ~dst:1 (frag i)) [ 2; 3; 4; 6 ];
  Icc_sim.Engine.run w.engine;
  Alcotest.(check int) "nothing delivered" 0 (count_deliveries w);
  Alcotest.(check bool) "fragments admitted, then rbc-inconsistent" true
    (match rbc_events w ~party:1 with
    | [ Rbc_fragment _; Rbc_fragment _; Rbc_fragment _; Rbc_inconsistent _;
        Rbc_fragment { index = 6; _ } ] -> true
    | _ -> false)

(* A fragment that fails the path check after delivery, when its index is
   still free, is dropped: no rbc-fragment event, and no echo although it
   carries party 1's own index.  The genuine one is then admitted. *)
let test_tampered_fragment_after_delivery () =
  let w = make_world () in
  let msg = proposal ~proposer:3 () in
  let frag = Icc_rbc.Rbc.fragment w.rbc ~src:3 msg in
  List.iter (fun i -> Icc_rbc.Rbc.on_frag w.rbc ~dst:1 (frag i)) [ 2; 3; 4 ];
  Alcotest.(check int) "party 1 delivered" 1
    (List.length !(Hashtbl.find w.delivered 1));
  let f0 = frag 0 in
  let flipped =
    String.mapi (fun j c -> if j = 0 then Char.chr (Char.code c lxor 1) else c)
      f0.Icc_rbc.Rbc.f_bytes
  in
  let other = Icc_crypto.Sha256.digest_string "not a sibling" in
  let tampered =
    [
      { f0 with Icc_rbc.Rbc.f_bytes = flipped };
      {
        f0 with
        Icc_rbc.Rbc.f_proof =
          List.mapi
            (fun l (st : Icc_crypto.Merkle.proof_step) ->
              if l = 2 then { st with sibling = Some other } else st)
            f0.Icc_rbc.Rbc.f_proof;
      };
      { (frag 5) with Icc_rbc.Rbc.f_index = 0 };
    ]
  in
  let before = List.length (rbc_events w ~party:1) in
  List.iter (Icc_rbc.Rbc.on_frag w.rbc ~dst:1) tampered;
  Alcotest.(check int) "no event, no echo" before
    (List.length (rbc_events w ~party:1));
  Alcotest.(check int) "nothing sent" 0
    (Icc_sim.Metrics.msgs_of_kind w.metrics "rbc-fragment");
  Icc_rbc.Rbc.on_frag w.rbc ~dst:1 f0;
  Alcotest.(check bool) "the genuine fragment is taken and echoed" true
    (match List.filteri (fun i _ -> i >= before) (rbc_events w ~party:1) with
    | [ Rbc_fragment { index = 0; _ }; Rbc_echo _ ] -> true
    | _ -> false);
  Alcotest.(check int) "delivered once" 1
    (List.length !(Hashtbl.find w.delivered 1))

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
    Alcotest.test_case "tampered fragment after delivery" `Quick
      test_tampered_fragment_after_delivery;
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
