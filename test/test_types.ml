(* Signed-text encodings of Types: injectivity, exact bytes, the one-block
   size budget, and domain separation of the signatures over them. *)

module T = Icc_core.Types

let texts =
  [
    ("authenticator", T.authenticator_text);
    ("notarization", T.notarization_text);
    ("finalization", T.finalization_text);
  ]

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let digest_abc = Icc_crypto.Sha256.digest_string "abc"
let digests = [ digest_abc; Icc_crypto.Sha256.digest_string "abd" ]

(* LEB128 group boundaries, plus the ints the codec can decode but honest
   encoders never write. *)
let round_edges = [ 0; 1; 127; 128; 16383; 16384; (1 lsl 21) - 1; max_int ]
let proposer_edges = [ -1; 0; 1; 127; 128; 16383; 16384; max_int; min_int ]

let test_edges_distinct () =
  let seen = Hashtbl.create 512 in
  let count = ref 0 in
  List.iter
    (fun (_, text) ->
      List.iter
        (fun block_hash ->
          List.iter
            (fun round ->
              List.iter
                (fun proposer ->
                  incr count;
                  Hashtbl.replace seen (text ~round ~proposer ~block_hash) ())
                proposer_edges)
            round_edges)
        digests)
    texts;
  Alcotest.(check int) "every edge tuple has its own text" !count
    (Hashtbl.length seen)

(* Pairs of tuples that are equal, one field apart, or unrelated, with
   fields drawn mostly from the edge pools, so near misses are common. *)
let prop_injective =
  let round = QCheck.Gen.(oneof [ oneofl round_edges; nat ]) in
  let proposer = QCheck.Gen.(oneof [ oneofl proposer_edges; nat; int ]) in
  let tuple = QCheck.Gen.(quad (int_bound 2) round proposer (int_bound 1)) in
  let pair =
    QCheck.Gen.(
      tuple >>= fun ((k, r, p, d) as t1) ->
      map
        (fun t2 -> (t1, t2))
        (oneof
           [
             return t1;
             tuple;
             map (fun k -> (k, r, p, d)) (int_bound 2);
             map (fun r -> (k, r, p, d)) round;
             map (fun p -> (k, r, p, d)) proposer;
             map (fun d -> (k, r, p, d)) (int_bound 1);
           ]))
  in
  QCheck.Test.make ~name:"signed texts are injective" ~count:2000
    (QCheck.make pair)
    (fun (t1, t2) ->
      let enc (k, round, proposer, d) =
        (snd (List.nth texts k)) ~round ~proposer
          ~block_hash:(List.nth digests d)
      in
      String.equal (enc t1) (enc t2) = (t1 = t2))

let test_exact_bytes () =
  Alcotest.(check string) "notarization (300, 5, sha256 abc)"
    ("02" ^ Icc_crypto.Sha256.to_hex digest_abc ^ "ac02" ^ "05")
    (hex (T.notarization_text ~round:300 ~proposer:5 ~block_hash:digest_abc));
  Alcotest.(check string) "negative proposer takes ten bytes"
    ("03" ^ Icc_crypto.Sha256.to_hex digest_abc ^ "01" ^ "ffffffffffffffffff01")
    (hex (T.finalization_text ~round:1 ~proposer:(-1) ~block_hash:digest_abc));
  Alcotest.(check string) "authenticator kind byte" "01"
    (String.sub (hex (T.authenticator_text ~round:1 ~proposer:1 ~block_hash:digest_abc)) 0 2)

(* A Schnorr challenge hashes a tag byte, two 8-byte values and the text;
   texts of at most 38 bytes keep it within one SHA-256 block (55 bytes
   of input). *)
let test_one_block_budget () =
  List.iter
    (fun (name, text) ->
      List.iter
        (fun round ->
          List.iter
            (fun proposer ->
              let len =
                String.length (text ~round ~proposer ~block_hash:digest_abc)
              in
              if len > 38 || 17 + len > 55 then
                Alcotest.failf "%s (%d, %d) is %d bytes" name round proposer
                  len)
            [ 1; 2; 16; 40; 127 ])
        [ 0; 1; 127; 128; 16383; 16384; (1 lsl 21) - 1 ])
    texts

let rng = Icc_sim.Rng.create 0x7e47
let rand_bits () = Icc_sim.Rng.bits61 rng

let test_share_bound_to_its_text () =
  let params, secrets =
    Icc_crypto.Multisig.setup ~threshold_h:3 ~n:4 rand_bits
  in
  let block_hash = Icc_crypto.Sha256.digest_string "block" in
  let share =
    Icc_crypto.Multisig.sign_share params (List.nth secrets 2)
      (T.notarization_text ~round:5 ~proposer:2 ~block_hash)
  in
  let verify text = Icc_crypto.Multisig.verify_share params text share in
  Alcotest.(check bool) "own text" true
    (verify (T.notarization_text ~round:5 ~proposer:2 ~block_hash));
  List.iter
    (fun (what, text) -> Alcotest.(check bool) what false (verify text))
    [
      ("finalization text", T.finalization_text ~round:5 ~proposer:2 ~block_hash);
      ("authenticator text", T.authenticator_text ~round:5 ~proposer:2 ~block_hash);
      ("round - 1", T.notarization_text ~round:4 ~proposer:2 ~block_hash);
      ("round + 1", T.notarization_text ~round:6 ~proposer:2 ~block_hash);
      ("other proposer", T.notarization_text ~round:5 ~proposer:1 ~block_hash);
      ( "other block",
        T.notarization_text ~round:5 ~proposer:2
          ~block_hash:(Icc_crypto.Sha256.digest_string "other") );
    ]

let suite =
  [
    Alcotest.test_case "edge tuples distinct" `Quick test_edges_distinct;
    QCheck_alcotest.to_alcotest prop_injective;
    Alcotest.test_case "exact bytes" `Quick test_exact_bytes;
    Alcotest.test_case "one-block budget" `Quick test_one_block_budget;
    Alcotest.test_case "share bound to its text" `Quick
      test_share_bound_to_its_text;
  ]
