(* Multisignature ((t, h, n)-threshold) tests for S_notary / S_final. *)

let rng = Icc_sim.Rng.create 0x0517
let rand_bits () = Icc_sim.Rng.bits61 rng

let take k l = List.filteri (fun i _ -> i < k) l

let setup ?(h = 5) ?(n = 7) () = Icc_crypto.Multisig.setup ~threshold_h:h ~n rand_bits

let test_share_verify () =
  let params, secrets = setup () in
  List.iter
    (fun sk ->
      let s = Icc_crypto.Multisig.sign_share params sk "m" in
      Alcotest.(check bool) "valid" true
        (Icc_crypto.Multisig.verify_share params "m" s))
    secrets

let test_combine_at_threshold () =
  let params, secrets = setup () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m") secrets
  in
  (match Icc_crypto.Multisig.combine params "m" (take 5 shares) with
  | None -> Alcotest.fail "combine at threshold failed"
  | Some s ->
      Alcotest.(check bool) "verifies" true (Icc_crypto.Multisig.verify params "m" s);
      Alcotest.(check int) "5 signers" 5 (List.length s.Icc_crypto.Multisig.signers));
  Alcotest.(check bool) "below threshold" true
    (Icc_crypto.Multisig.combine params "m" (take 4 shares) = None)

let test_duplicates_not_counted () =
  let params, secrets = setup ~h:3 ~n:4 () in
  let s1 = Icc_crypto.Multisig.sign_share params (List.hd secrets) "m" in
  Alcotest.(check bool) "3 copies of one share != 3 shares" true
    (Icc_crypto.Multisig.combine params "m" [ s1; s1; s1 ] = None)

let test_invalid_share_filtered () =
  let params, secrets = setup ~h:3 ~n:4 () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m") secrets
  in
  let forged =
    match shares with
    | a :: b :: _ -> { a with Icc_crypto.Multisig.signer = b.Icc_crypto.Multisig.signer }
    | _ -> assert false
  in
  (* forged share (signature under wrong index) is filtered out *)
  (match Icc_crypto.Multisig.combine params "m" (forged :: take 3 shares) with
  | None -> Alcotest.fail "should still combine from the 3 good shares"
  | Some s ->
      Alcotest.(check bool) "verifies" true (Icc_crypto.Multisig.verify params "m" s))

let test_verify_rejects_subthreshold_object () =
  let params, secrets = setup ~h:3 ~n:4 () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m") secrets
  in
  match Icc_crypto.Multisig.combine params "m" shares with
  | None -> Alcotest.fail "combine"
  | Some s ->
      let stripped =
        {
          Icc_crypto.Multisig.signers = take 2 s.Icc_crypto.Multisig.signers;
          signatures = take 2 s.Icc_crypto.Multisig.signatures;
        }
      in
      Alcotest.(check bool) "stripped rejected" false
        (Icc_crypto.Multisig.verify params "m" stripped)

let test_cross_message_rejected () =
  let params, secrets = setup ~h:2 ~n:3 () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m1") secrets
  in
  match Icc_crypto.Multisig.combine params "m1" shares with
  | None -> Alcotest.fail "combine"
  | Some s ->
      Alcotest.(check bool) "cross-message" false
        (Icc_crypto.Multisig.verify params "m2" s)

let prop_combine_any_h_subset =
  QCheck.Test.make ~name:"multisig any h-subset combines" ~count:30
    (QCheck.pair (QCheck.int_range 1 4) QCheck.small_string) (fun (t, msg) ->
      let n = (3 * t) + 1 in
      let h = n - t in
      let params, secrets = Icc_crypto.Multisig.setup ~threshold_h:h ~n rand_bits in
      let shares =
        Array.of_list
          (List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk msg) secrets)
      in
      Icc_sim.Rng.shuffle_in_place rng shares;
      match
        Icc_crypto.Multisig.combine params msg (Array.to_list (Array.sub shares 0 h))
      with
      | Some s -> Icc_crypto.Multisig.verify params msg s
      | None -> false)

(* [?known] skips only the Schnorr equation: a vouched-for member costs
   no verify, but the threshold, ordering and signer-range checks stay. *)
let test_known_skips_only_the_equation () =
  let module M = Icc_crypto.Multisig in
  let params, secrets = setup () in
  let shares = List.map (fun sk -> M.sign_share params sk "m") secrets in
  let known _ = true in
  let verifies () =
    Icc_obs.Registry.value Icc_crypto.Counters.schnorr_verifies
  in
  let before = verifies () in
  (match M.combine ~known params "m" (take 5 shares) with
  | None -> Alcotest.fail "combine at threshold failed"
  | Some s ->
      Alcotest.(check bool) "verifies" true (M.verify ~known params "m" s));
  Alcotest.(check int) "no equation run" 0 (verifies () - before);
  let sigs l = List.map (fun (sh : M.share) -> sh.signature) l in
  let check name signers signatures =
    Alcotest.(check bool) name false
      (M.verify ~known params "m" { M.signers; signatures })
  in
  check "below threshold" [ 1; 2; 3; 4 ] (sigs (take 4 shares));
  check "unsorted" [ 2; 1; 3; 4; 5 ] (sigs (take 5 shares));
  check "signer out of range" [ 1; 2; 3; 4; 8 ] (sigs (take 5 shares));
  Alcotest.(check bool) "out-of-range share" false
    (List.hd
       (M.verify_shares ~known params "m"
          [ { (List.hd shares) with M.signer = 0 } ]))

(* Share-set verdicts: culprit identification in mixed share sets. *)

module G = Icc_crypto.Group
module Schnorr = Icc_crypto.Schnorr
module Multisig = Icc_crypto.Multisig

let committee = 8

let mparams, msecrets =
  let rng = Icc_sim.Rng.create 0xba7c in
  Multisig.setup ~threshold_h:1 ~n:committee (fun () -> Icc_sim.Rng.bits61 rng)

(* A share on [msg] by party [i mod committee + 1], with tamper class 0
   (honest) .. 4; the classic-form Schnorr.verify behind
   Multisig.verify_share must reject every non-zero class. *)
let share_item msg i tamper =
  let secret = List.nth msecrets (i mod committee) in
  let share = Multisig.sign_share mparams secret msg in
  let sg = share.Multisig.signature in
  match tamper with
  | 1 ->
      { share with
        Multisig.signature =
          { sg with Schnorr.response = G.scalar_add sg.Schnorr.response 1 } }
  | 2 ->
      { share with
        Multisig.signature =
          { sg with Schnorr.challenge = G.scalar_add sg.Schnorr.challenge 1 } }
  | 3 ->
      (* a share of another message presented for this one *)
      Multisig.sign_share mparams secret (msg ^ "?")
  | 4 ->
      (* a genuine signature claimed under another party's index *)
      { share with Multisig.signer = (share.Multisig.signer mod committee) + 1 }
  | _ -> share

(* Share-set verdicts must equal the one-by-one verdicts for any mix of
   honest and forged shares: honest shares accepted, every forgery
   flagged. *)
let prop_verify_shares_matches_singles =
  let arb =
    QCheck.pair
      (QCheck.list_of_size (QCheck.Gen.int_bound 24) (QCheck.int_bound 4))
      QCheck.small_nat
  in
  QCheck.Test.make ~name:"multisig share verdicts = single verdicts" ~count:60
    arb (fun (tampers, m) ->
      let msg = Printf.sprintf "share message %d" m in
      let shares = List.mapi (share_item msg) tampers in
      let verdicts = Multisig.verify_shares mparams msg shares in
      verdicts = List.map (Multisig.verify_share mparams msg) shares
      && verdicts = List.map (fun t -> t = 0) tampers)

let prop_verify_shares_single_forgery_rejected =
  let arb = QCheck.pair (QCheck.int_range 2 30) (QCheck.int_bound 1_000_000) in
  QCheck.Test.make ~name:"multisig shares flag any single forgery" ~count:60
    arb (fun (n, seed) ->
      let bad = seed mod n in
      let msg = Printf.sprintf "share message %d" seed in
      let shares =
        List.init n (fun i ->
            share_item msg i (if i = bad then 1 + (seed mod 4) else 0))
      in
      let verdicts = Multisig.verify_shares mparams msg shares in
      List.length verdicts = n
      && List.for_all Fun.id (List.filteri (fun i _ -> i <> bad) verdicts)
      && not (List.nth verdicts bad))

let suite =
  [
    Alcotest.test_case "share verify" `Quick test_share_verify;
    Alcotest.test_case "combine threshold" `Quick test_combine_at_threshold;
    Alcotest.test_case "duplicates" `Quick test_duplicates_not_counted;
    Alcotest.test_case "invalid filtered" `Quick test_invalid_share_filtered;
    Alcotest.test_case "subthreshold rejected" `Quick
      test_verify_rejects_subthreshold_object;
    Alcotest.test_case "cross-message" `Quick test_cross_message_rejected;
    QCheck_alcotest.to_alcotest prop_combine_any_h_subset;
    Alcotest.test_case "known skips only the equation" `Quick
      test_known_skips_only_the_equation;
    QCheck_alcotest.to_alcotest prop_verify_shares_matches_singles;
    QCheck_alcotest.to_alcotest prop_verify_shares_single_forgery_rejected;
  ]
