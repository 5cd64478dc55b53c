(* Merkle tree tests. *)

let leaves n = List.init n (fun i -> Printf.sprintf "fragment-%d" i)

let test_prove_verify_all_sizes () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let root = Icc_crypto.Merkle.root_of_leaves ls in
      List.iteri
        (fun i leaf ->
          let proof = Icc_crypto.Merkle.prove ls i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d" n i)
            true
            (Icc_crypto.Merkle.verify ~root ~leaf proof))
        ls)
    [ 1; 2; 3; 4; 5; 7; 8; 13; 16; 31 ]

let test_wrong_leaf_rejected () =
  let ls = leaves 8 in
  let root = Icc_crypto.Merkle.root_of_leaves ls in
  let proof = Icc_crypto.Merkle.prove ls 3 in
  Alcotest.(check bool) "wrong leaf" false
    (Icc_crypto.Merkle.verify ~root ~leaf:"fragment-4" proof)

let test_wrong_position_rejected () =
  let ls = leaves 8 in
  let root = Icc_crypto.Merkle.root_of_leaves ls in
  let proof = Icc_crypto.Merkle.prove ls 3 in
  (* leaf 2's content with leaf 3's proof must fail *)
  Alcotest.(check bool) "wrong position" false
    (Icc_crypto.Merkle.verify ~root ~leaf:"fragment-2" proof)

let test_distinct_roots () =
  let r1 = Icc_crypto.Merkle.root_of_leaves (leaves 4) in
  let r2 = Icc_crypto.Merkle.root_of_leaves ("x" :: leaves 3) in
  Alcotest.(check bool) "distinct" false (Icc_crypto.Sha256.equal r1 r2)

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.root_of_leaves: empty")
    (fun () -> ignore (Icc_crypto.Merkle.root_of_leaves []))

let test_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Merkle.prove: index out of range")
    (fun () -> ignore (Icc_crypto.Merkle.prove (leaves 3) 3))

let prop_roundtrip =
  QCheck.Test.make ~name:"merkle roundtrip" ~count:60
    (QCheck.pair (QCheck.int_range 1 40) QCheck.small_string) (fun (n, salt) ->
      let ls = List.init n (fun i -> Printf.sprintf "%s-%d" salt i) in
      let root = Icc_crypto.Merkle.root_of_leaves ls in
      List.for_all
        (fun i ->
          Icc_crypto.Merkle.verify ~root ~leaf:(List.nth ls i)
            (Icc_crypto.Merkle.prove ls i))
        (List.init n Fun.id))

(* [index_of_path] recovers the index [prove] was given, and no one-step
   tweak of a proof (flipped direction, dropped sibling, dropped step)
   still claims that index. *)
let prop_index_of_path =
  QCheck.Test.make ~name:"merkle index_of_path binds the leaf index"
    ~count:40 (QCheck.int_range 1 40) (fun n ->
      let ls = leaves n in
      let open Icc_crypto.Merkle in
      List.for_all
        (fun i ->
          let proof = prove ls i in
          let tweaks =
            List.concat
              (List.mapi
                 (fun j (st : proof_step) ->
                   let set st' = List.mapi (fun k x -> if k = j then st' else x) proof in
                   [
                     set { st with left = not st.left };
                     set { st with sibling = None };
                     List.filteri (fun k _ -> k <> j) proof;
                   ])
                 proof)
          in
          index_of_path ~n_leaves:n proof = Some i
          && List.for_all
               (fun p -> p = proof || index_of_path ~n_leaves:n p <> Some i)
               tweaks)
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "prove/verify sizes" `Quick test_prove_verify_all_sizes;
    Alcotest.test_case "wrong leaf" `Quick test_wrong_leaf_rejected;
    Alcotest.test_case "wrong position" `Quick test_wrong_position_rejected;
    Alcotest.test_case "distinct roots" `Quick test_distinct_roots;
    Alcotest.test_case "empty" `Quick test_empty_rejected;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_index_of_path;
  ]
