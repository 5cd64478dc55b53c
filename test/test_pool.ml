(* Pool admission and classification tests (the paper's §3.4 predicates). *)

let kit = Kit.make ~n:4 ~t:1 ()

let key b = (b.Icc_core.Block.round, Icc_core.Block.hash b)

let test_block_without_authenticator_not_valid () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  Alcotest.(check bool) "added" true (Icc_core.Pool.add_block pool b);
  Alcotest.(check bool) "re-add is no-op" false (Icc_core.Pool.add_block pool b);
  Alcotest.(check bool) "not valid" false (Icc_core.Pool.is_valid pool (key b))

let test_authenticated_round1_block_valid () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  ignore (Icc_core.Pool.add_block pool b);
  Alcotest.(check bool) "auth accepted" true
    (Icc_core.Pool.add_authenticator pool ~round:1 ~proposer:1
       ~block_hash:(Icc_core.Block.hash b) (Kit.authenticator kit b));
  Alcotest.(check bool) "valid now" true (Icc_core.Pool.is_valid pool (key b));
  Alcotest.(check bool) "not notarized" false
    (Icc_core.Pool.is_notarized pool (key b))

let test_forged_authenticator_rejected () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  ignore (Icc_core.Pool.add_block pool b);
  (* signature by party 2 claiming party 1's block *)
  let forged =
    Icc_crypto.Schnorr.sign
      (Kit.key kit 2).Icc_crypto.Keygen.auth
      (Icc_core.Types.authenticator_text ~round:1 ~proposer:1
         ~block_hash:(Icc_core.Block.hash b))
  in
  Alcotest.(check bool) "rejected" false
    (Icc_core.Pool.add_authenticator pool ~round:1 ~proposer:1
       ~block_hash:(Icc_core.Block.hash b) forged);
  Alcotest.(check bool) "still not valid" false
    (Icc_core.Pool.is_valid pool (key b))

let test_validity_requires_notarized_parent () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  let b2 = Kit.block ~round:2 ~proposer:2 ~parent:(Some b1) () in
  (* admit child first: orphan until the parent is notarized *)
  ignore (Icc_core.Pool.add_block pool b2);
  ignore
    (Icc_core.Pool.add_authenticator pool ~round:2 ~proposer:2
       ~block_hash:(Icc_core.Block.hash b2) (Kit.authenticator kit b2));
  Alcotest.(check bool) "orphan not valid" false
    (Icc_core.Pool.is_valid pool (key b2));
  (* now bring the parent with a full certificate: cascade must fire *)
  Kit.admit_notarized kit pool b1;
  Alcotest.(check bool) "parent notarized" true
    (Icc_core.Pool.is_notarized pool (key b1));
  Alcotest.(check bool) "child promoted" true
    (Icc_core.Pool.is_valid pool (key b2))

let test_notarization_share_accumulation () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  ignore (Icc_core.Pool.add_block pool b);
  ignore
    (Icc_core.Pool.add_authenticator pool ~round:1 ~proposer:1
       ~block_hash:(Icc_core.Block.hash b) (Kit.authenticator kit b));
  Alcotest.(check bool) "share 1" true
    (Icc_core.Pool.add_notarization_share pool (Kit.notarization_share kit ~signer:1 b));
  Alcotest.(check bool) "duplicate signer dropped" false
    (Icc_core.Pool.add_notarization_share pool (Kit.notarization_share kit ~signer:1 b));
  ignore (Icc_core.Pool.add_notarization_share pool (Kit.notarization_share kit ~signer:2 b));
  ignore (Icc_core.Pool.add_notarization_share pool (Kit.notarization_share kit ~signer:3 b));
  Alcotest.(check int) "3 distinct" 3
    (Icc_core.Pool.notar_share_count pool (key b));
  (* n - t = 3 shares: completion must report a combinable block *)
  match Icc_core.Pool.round_completion pool 1 with
  | Some (Icc_core.Pool.Combinable (b', shares)) ->
      Alcotest.(check bool) "same block" true
        (Icc_crypto.Sha256.equal (Icc_core.Block.hash b') (Icc_core.Block.hash b));
      Alcotest.(check int) "3 shares" 3 (List.length shares)
  | Some (Icc_core.Pool.Already_notarized _) -> Alcotest.fail "not yet notarized"
  | None -> Alcotest.fail "completion missing"

let test_round_completion_prefers_notarized () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  Kit.admit_notarized kit pool b;
  match Icc_core.Pool.round_completion pool 1 with
  | Some (Icc_core.Pool.Already_notarized (b', _)) ->
      Alcotest.(check bool) "same block" true
        (Icc_crypto.Sha256.equal (Icc_core.Block.hash b') (Icc_core.Block.hash b))
  | _ -> Alcotest.fail "expected notarized completion"

let test_invalid_share_rejected () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  ignore (Icc_core.Pool.add_block pool b);
  let share = Kit.notarization_share kit ~signer:1 b in
  let tampered =
    {
      share with
      Icc_core.Types.s_share =
        {
          share.Icc_core.Types.s_share with
          Icc_crypto.Multisig.signer = 2 (* signature won't match signer 2 *);
        };
    }
  in
  Alcotest.(check bool) "tampered rejected" false
    (Icc_core.Pool.add_notarization_share pool tampered)

let test_finalization_flow () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  Kit.admit_notarized kit pool b1;
  Alcotest.(check bool) "not finalized" false
    (Icc_core.Pool.is_finalized pool (key b1));
  (* finalization shares accumulate to a full set *)
  ignore (Icc_core.Pool.add_finalization_share pool (Kit.finalization_share kit ~signer:1 b1));
  ignore (Icc_core.Pool.add_finalization_share pool (Kit.finalization_share kit ~signer:2 b1));
  ignore (Icc_core.Pool.add_finalization_share pool (Kit.finalization_share kit ~signer:4 b1));
  (match Icc_core.Pool.finalization_step pool ~kmax:0 with
  | Some (Icc_core.Pool.Final_combinable (b', shares)) ->
      Alcotest.(check bool) "same block" true
        (Icc_crypto.Sha256.equal (Icc_core.Block.hash b') (Icc_core.Block.hash b1));
      Alcotest.(check int) "3 shares" 3 (List.length shares)
  | _ -> Alcotest.fail "expected combinable finalization");
  (* a certificate flips it to finalized *)
  ignore (Icc_core.Pool.add_finalization pool (Kit.finalization kit b1 [ 1; 2; 4 ]));
  Alcotest.(check bool) "finalized" true (Icc_core.Pool.is_finalized pool (key b1));
  (match Icc_core.Pool.finalization_step pool ~kmax:0 with
  | Some (Icc_core.Pool.Final_cert _) -> ()
  | _ -> Alcotest.fail "expected cert finalization");
  Alcotest.(check bool) "kmax filter" true
    (Icc_core.Pool.finalization_step pool ~kmax:1 = None)

let test_root_is_notarized_and_finalized () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  Alcotest.(check bool) "root notarized" true
    (Icc_core.Pool.is_notarized pool (0, Icc_core.Block.root_hash));
  Alcotest.(check bool) "root finalized" true
    (Icc_core.Pool.is_finalized pool (0, Icc_core.Block.root_hash))

let test_beacon_share_dedup () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let msg = Icc_core.Types.beacon_text ~round:1 ~prev_sigma:Icc_core.Types.beacon_genesis in
  let share =
    Icc_crypto.Threshold_vuf.sign_share kit.Kit.system.Icc_crypto.Keygen.beacon
      (Kit.key kit 1).Icc_crypto.Keygen.beacon_key msg
  in
  Alcotest.(check bool) "added" true (Icc_core.Pool.add_beacon_share pool ~round:1 share);
  Alcotest.(check bool) "dup dropped" false
    (Icc_core.Pool.add_beacon_share pool ~round:1 share);
  Alcotest.(check int) "one share" 1
    (List.length (Icc_core.Pool.beacon_shares pool 1))

(* --- beacon-share spoofing regression ----------------------------------

   Before the fix, [add_beacon_share] deduplicated purely by signer: a
   spoofed share under an honest signer's id occupied the slot, the later
   genuine share was dropped as a "duplicate", and [Beacon.try_compute]
   could starve (liveness) on garbage shares it had no way to evict. *)

let beacon_round1_msg =
  Icc_core.Types.beacon_text ~round:1 ~prev_sigma:Icc_core.Types.beacon_genesis

let beacon_share signer =
  Icc_crypto.Threshold_vuf.sign_share kit.Kit.system.Icc_crypto.Keygen.beacon
    (Kit.key kit signer).Icc_crypto.Keygen.beacon_key beacon_round1_msg

(* A syntactically well-formed share under [signer]'s id that does not
   verify for round 1: signed over a different round's text. *)
let spoofed_share signer =
  Icc_crypto.Threshold_vuf.sign_share kit.Kit.system.Icc_crypto.Keygen.beacon
    (Kit.key kit signer).Icc_crypto.Keygen.beacon_key
    (Icc_core.Types.beacon_text ~round:9
       ~prev_sigma:Icc_core.Types.beacon_genesis)

let beacon_verify share =
  Icc_crypto.Threshold_vuf.verify_share kit.Kit.system.Icc_crypto.Keygen.beacon
    beacon_round1_msg share

let signers shares =
  List.map (fun sh -> sh.Icc_crypto.Threshold_vuf.signer) shares

(* Admission no longer verifies, so a spoof offered with a verifier is
   stored unverified; what the spoofing fix guards is that it never
   reaches the beacon and never keeps the genuine share out of its slot. *)
let test_spoofed_beacon_share_never_combined () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  ignore
    (Icc_core.Pool.add_beacon_share pool ~round:1 ~verify:beacon_verify
       (spoofed_share 1));
  (* the genuine share under the same signer id still gets in *)
  Alcotest.(check bool) "real share takes the slot" true
    (Icc_core.Pool.add_beacon_share pool ~round:1 ~verify:beacon_verify
       (beacon_share 1));
  ignore
    (Icc_core.Pool.add_beacon_share pool ~round:1 ~verify:beacon_verify
       (spoofed_share 2));
  ignore (Icc_core.Pool.add_beacon_share pool ~round:1 (beacon_share 3));
  let combined =
    Icc_core.Pool.verified_beacon_shares pool ~round:1 ~verify:beacon_verify
  in
  Alcotest.(check (list int)) "t+1 lowest genuine signers" [ 1; 3 ]
    (signers combined);
  Alcotest.(check bool) "no spoof combined" true
    (List.for_all beacon_verify combined)

let test_spoofed_occupant_evicted_by_verifying_newcomer () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  (* previous beacon unknown yet: the spoof is admitted unverified *)
  Alcotest.(check bool) "spoof admitted unverified" true
    (Icc_core.Pool.add_beacon_share pool ~round:1 (spoofed_share 1));
  (* old code: the genuine retransmission would be dropped as a duplicate
     here, permanently wedging the round's beacon on the spoofed share *)
  Alcotest.(check bool) "real share evicts the spoof" true
    (Icc_core.Pool.add_beacon_share pool ~round:1 ~verify:beacon_verify
       (beacon_share 1));
  Alcotest.(check int) "one slot for the signer" 1
    (List.length (Icc_core.Pool.beacon_shares pool 1));
  Alcotest.(check bool) "slot holds the verifying share" true
    (List.for_all beacon_verify (Icc_core.Pool.beacon_shares pool 1))

(* A byte-equal retransmission of an unverified occupant carries no new
   information and costs no verification, with or without a verifier. *)
let test_beacon_duplicate_verifies_nothing () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  ignore (Icc_core.Pool.add_beacon_share pool ~round:1 (beacon_share 1));
  let before = Icc_obs.Registry.value Icc_crypto.Counters.dleq_verifies in
  Alcotest.(check bool) "duplicate dropped" false
    (Icc_core.Pool.add_beacon_share pool ~round:1 ~verify:beacon_verify
       (beacon_share 1));
  Alcotest.(check int) "no DLEQ verify" before
    (Icc_obs.Registry.value Icc_crypto.Counters.dleq_verifies)

(* Regression: shares naming a signer outside 1..n were appended to the
   round's list without a verifier, one per distinct signer, so a peer
   could grow the pool without bound until the round was pruned. *)
let test_out_of_range_beacon_signers_not_stored () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let genuine = beacon_share 1 in
  for k = 1 to 10_000 do
    let signer = if k mod 2 = 0 then 4 + k else -k in
    let share = { genuine with Icc_crypto.Threshold_vuf.signer } in
    let verify = if k mod 3 = 0 then Some beacon_verify else None in
    Alcotest.(check bool) "rejected" false
      (Icc_core.Pool.add_beacon_share pool ~round:1 ?verify share)
  done;
  Alcotest.(check (option int)) "no beacon share stored" (Some 0)
    (List.assoc_opt "beacon_shares" (Icc_core.Pool.table_sizes pool))

let test_verified_beacon_shares_evicts_failures () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  ignore (Icc_core.Pool.add_beacon_share pool ~round:1 (spoofed_share 1));
  ignore (Icc_core.Pool.add_beacon_share pool ~round:1 (beacon_share 2));
  let good =
    Icc_core.Pool.verified_beacon_shares pool ~round:1 ~verify:beacon_verify
  in
  Alcotest.(check int) "only the genuine share survives" 1 (List.length good);
  (* the spoofed slot was evicted, so the genuine retransmission refills it
     even without a verifier *)
  Alcotest.(check bool) "slot refillable after eviction" true
    (Icc_core.Pool.add_beacon_share pool ~round:1 (beacon_share 1));
  Alcotest.(check int) "t+1 shares present" 2
    (List.length (Icc_core.Pool.beacon_shares pool 1))

(* --- prune sweeps every per-round table --------------------------------

   A 200-round run with periodic pruning, salted with orphan artifacts
   (shares and beacon shares for blocks that never arrive) which earlier
   prune implementations leaked.  Every internal table must stay bounded
   by the retained window, independent of the run length. *)
let test_prune_keeps_all_tables_bounded () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let depth = 8 in
  let parent = ref None in
  for r = 1 to 200 do
    let b = Kit.block ~round:r ~proposer:((r mod 4) + 1) ~parent:!parent () in
    Kit.admit_notarized kit pool b;
    ignore
      (Icc_core.Pool.add_finalization_share pool
         (Kit.finalization_share kit ~signer:1 b));
    ignore (Icc_core.Pool.add_finalization pool (Kit.finalization kit b [ 1; 2; 3 ]));
    (* orphan notarization share: its block never arrives *)
    let phantom =
      Kit.block ~round:r ~proposer:(((r + 1) mod 4) + 1) ~parent:!parent ()
    in
    ignore
      (Icc_core.Pool.add_notarization_share pool
         (Kit.notarization_share kit ~signer:2 phantom));
    (* unverifiable pipelined beacon share for the round *)
    ignore
      (Icc_core.Pool.add_beacon_share pool ~round:r
         (Icc_crypto.Threshold_vuf.sign_share
            kit.Kit.system.Icc_crypto.Keygen.beacon
            (Kit.key kit ((r mod 4) + 1)).Icc_crypto.Keygen.beacon_key
            (Icc_core.Types.beacon_text ~round:r
               ~prev_sigma:Icc_core.Types.beacon_genesis)));
    parent := Some b;
    if r mod 4 = 0 then Icc_core.Pool.prune pool ~below:(r - depth)
  done;
  (* <= 12 live rounds, a handful of entries per round per table *)
  let bound = 80 in
  List.iter
    (fun (name, size) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s bounded (%d <= %d)" name size bound)
        true (size <= bound))
    (Icc_core.Pool.table_sizes pool);
  Alcotest.(check bool)
    (Printf.sprintf "stored blocks bounded (%d)" (Icc_core.Pool.stored_blocks pool))
    true
    (Icc_core.Pool.stored_blocks pool <= bound);
  (* admissions below the horizon are rejected, not resurrected *)
  let stale = Kit.block ~round:100 ~proposer:1 ~parent:None () in
  Alcotest.(check bool) "below-horizon block rejected" false
    (Icc_core.Pool.add_block pool stale)

(* --- large-n slot ring stays bounded, views stay fresh -----------------

   Regression for the slot-ring pool at committee sizes in the hundreds:
   the ring and every per-slot structure must stay bounded by the retained
   round window (never by run length or by n²), and a round's
   valid/notarized views must reflect every admission made after they were
   first queried.  (The name dates from the per-slot view caches the pool
   no longer keeps.) *)
let test_large_n_bounded_and_caches_invalidated () =
  let n = 200 in
  let big = Kit.make ~n ~t:66 () in
  let pool = Icc_core.Pool.create big.Kit.system in
  let depth = 8 in
  let parent = ref None in
  for r = 1 to 200 do
    let b = Kit.block ~round:r ~proposer:((r mod n) + 1) ~parent:!parent () in
    (* populate the caches first, then check admissions refresh them *)
    Alcotest.(check int)
      (Printf.sprintf "round %d starts empty" r)
      0
      (List.length (Icc_core.Pool.valid_blocks pool r));
    Kit.admit_notarized big pool b;
    Alcotest.(check int)
      (Printf.sprintf "round %d valid view refreshed by admission" r)
      1
      (List.length (Icc_core.Pool.valid_blocks pool r));
    Alcotest.(check bool)
      (Printf.sprintf "round %d notarized view refreshed" r)
      true
      (Icc_core.Pool.notarized_blocks pool r <> []);
    (* orphan share salt from the top of the signer id range *)
    let phantom =
      Kit.block ~round:r ~proposer:(((r + 7) mod n) + 1) ~parent:!parent ()
    in
    ignore
      (Icc_core.Pool.add_notarization_share pool
         (Kit.notarization_share big ~signer:n phantom));
    parent := Some b;
    if r mod 4 = 0 then Icc_core.Pool.prune pool ~below:(r - depth)
  done;
  let bound = 80 in
  List.iter
    (fun (name, size) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s bounded (%d <= %d)" name size bound)
        true (size <= bound))
    (Icc_core.Pool.table_sizes pool)

let test_chain_walk () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  let b2 = Kit.block ~round:2 ~proposer:2 ~parent:(Some b1) () in
  let b3 = Kit.block ~round:3 ~proposer:3 ~parent:(Some b2) () in
  Kit.admit_notarized kit pool b1;
  Kit.admit_notarized kit pool b2;
  Kit.admit_notarized kit pool b3;
  let chain = Icc_core.Chain.to_root pool b3 in
  Alcotest.(check (list int)) "rounds in order" [ 1; 2; 3 ]
    (List.map (fun b -> b.Icc_core.Block.round) chain);
  let seg = Icc_core.Chain.segment pool b3 ~from_round:1 in
  Alcotest.(check (list int)) "segment (1,3]" [ 2; 3 ]
    (List.map (fun b -> b.Icc_core.Block.round) seg)

let suite =
  [
    Alcotest.test_case "unauthenticated not valid" `Quick
      test_block_without_authenticator_not_valid;
    Alcotest.test_case "authenticated valid" `Quick
      test_authenticated_round1_block_valid;
    Alcotest.test_case "forged authenticator" `Quick
      test_forged_authenticator_rejected;
    Alcotest.test_case "parent notarization cascade" `Quick
      test_validity_requires_notarized_parent;
    Alcotest.test_case "share accumulation" `Quick
      test_notarization_share_accumulation;
    Alcotest.test_case "completion prefers notarized" `Quick
      test_round_completion_prefers_notarized;
    Alcotest.test_case "invalid share rejected" `Quick test_invalid_share_rejected;
    Alcotest.test_case "finalization flow" `Quick test_finalization_flow;
    Alcotest.test_case "root status" `Quick test_root_is_notarized_and_finalized;
    Alcotest.test_case "beacon share dedup" `Quick test_beacon_share_dedup;
    Alcotest.test_case "spoofed beacon share rejected" `Quick
      test_spoofed_beacon_share_never_combined;
    Alcotest.test_case "beacon duplicate verifies nothing" `Quick
      test_beacon_duplicate_verifies_nothing;
    Alcotest.test_case "out-of-range beacon signers not stored" `Quick
      test_out_of_range_beacon_signers_not_stored;
    Alcotest.test_case "spoofed occupant evicted" `Quick
      test_spoofed_occupant_evicted_by_verifying_newcomer;
    Alcotest.test_case "verified_beacon_shares evicts failures" `Quick
      test_verified_beacon_shares_evicts_failures;
    Alcotest.test_case "prune keeps tables bounded" `Quick
      test_prune_keeps_all_tables_bounded;
    Alcotest.test_case "large-n ring bounded, caches invalidated" `Quick
      test_large_n_bounded_and_caches_invalidated;
    Alcotest.test_case "chain walk" `Quick test_chain_walk;
  ]
