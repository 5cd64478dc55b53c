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

(* The list-based construction that [tree]/[proof] replaced: every call
   rehashes the leaves and rebuilds each level.  Kept as the oracle. *)
module Reference = struct
  open Icc_crypto.Merkle

  let node_hash l r =
    Icc_crypto.Sha256.digest_string
      ("node|" ^ (l : Icc_crypto.Sha256.t :> string)
      ^ (r : Icc_crypto.Sha256.t :> string))

  let rec pair = function
    | l :: r :: rest -> node_hash l r :: pair rest
    | [ odd ] -> [ odd ]
    | [] -> []

  let root_of_leaves leaves =
    let rec up = function [ h ] -> h | level -> up (pair level) in
    up (List.map leaf_hash leaves)

  let prove leaves index : proof =
    let rec up level pos acc =
      match level with
      | [ _ ] -> List.rev acc
      | _ ->
          let arr = Array.of_list level in
          let len = Array.length arr in
          let step =
            if pos land 1 = 0 then
              if pos + 1 < len then { sibling = Some arr.(pos + 1); left = true }
              else { sibling = None; left = true }
            else { sibling = Some arr.(pos - 1); left = false }
          in
          up (pair level) (pos / 2) (step :: acc)
    in
    up (List.map leaf_hash leaves) index []
end

let same_proof (a : Icc_crypto.Merkle.proof) (b : Icc_crypto.Merkle.proof) =
  List.equal
    (fun (x : Icc_crypto.Merkle.proof_step) (y : Icc_crypto.Merkle.proof_step) ->
      Bool.equal x.left y.left
      && Option.equal Icc_crypto.Sha256.equal x.sibling y.sibling)
    a b

let prop_tree_matches_reference =
  QCheck.Test.make ~name:"merkle tree/proof match the list-based reference"
    ~count:4 QCheck.small_string (fun salt ->
      List.for_all
        (fun n ->
          let ls = List.init n (fun i -> Printf.sprintf "%s-%d" salt i) in
          let t = Icc_crypto.Merkle.tree (Array.of_list ls) in
          let root = Reference.root_of_leaves ls in
          Icc_crypto.Sha256.equal (Icc_crypto.Merkle.root t) root
          && Icc_crypto.Sha256.equal (Icc_crypto.Merkle.root_of_leaves ls) root
          && List.for_all
               (fun i ->
                 let expected = Reference.prove ls i in
                 same_proof (Icc_crypto.Merkle.proof t i) expected
                 && same_proof (Icc_crypto.Merkle.prove ls i) expected)
               (List.init n Fun.id))
        (List.init 64 succ))

(* A leaf or node digest allocates its 32-byte result (a header and five
   words) and nothing else: the hash input goes through module scratch. *)
let test_hash_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let leaf = String.make 215 'f' in
    let d = Icc_crypto.Merkle.leaf_hash leaf in
    let per_call f =
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (f ()))
      done;
      (Gc.minor_words () -. before) /. 1000.
    in
    let leaf_words = per_call (fun () -> Icc_crypto.Merkle.leaf_hash leaf)
    and node_words = per_call (fun () -> Icc_crypto.Merkle.node_hash d d) in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f minor words per leaf digest <= 6" leaf_words)
      true (leaf_words <= 6.);
    Alcotest.(check bool)
      (Printf.sprintf "%.2f minor words per node digest <= 6" node_words)
      true (node_words <= 6.)
  end

(* The authenticated-node cache against the oracle it replaces: for every
   candidate (index, leaf, proof), [admit] accepts iff [index_of_path]
   gives that index and [verify] accepts.  Candidates are honest
   fragments and mutants of them in a random admission order, checked on
   a cache that starts from the root alone, again after it is completed,
   and on one built from the whole tree.  A [complete] with one leaf
   changed must fail and leave the verdicts as they were. *)
let prop_cache_matches_oracle =
  QCheck.Test.make ~name:"merkle cache admits what index_of_path + verify admit"
    ~count:300
    QCheck.(pair (int_range 1 40) int)
    (fun (n, seed) ->
      let open Icc_crypto.Merkle in
      let rng = Random.State.make [| seed |] in
      let ls = Array.init n (fun i -> Printf.sprintf "frag-%d-%d" seed i) in
      let t = tree ls in
      let root = root t in
      let other = Icc_crypto.Sha256.digest_string (string_of_int seed) in
      let flip s =
        String.mapi
          (fun j c -> if j = 0 then Char.chr (Char.code c lxor 1) else c)
          s
      in
      let with_sibling p l s =
        List.mapi (fun j (st : proof_step) -> if j = l then { st with sibling = s } else st) p
      in
      let paired p =
        List.filter_map
          (fun (j, (st : proof_step)) -> Option.map (fun s -> (j, s)) st.sibling)
          (List.mapi (fun j st -> (j, st)) p)
      in
      (* a flipped leaf byte, an altered or swapped sibling, a relabelled
         index, a truncated or extended path, a flipped direction, a
         dropped sibling *)
      let mutate (i, leaf, p) =
        let step = Random.State.int rng (max 1 (List.length p)) in
        match (Random.State.int rng 8, paired p) with
        | 0, _ | (1 | 2), [] -> (i, flip leaf, p)
        | 1, sibs ->
            let l, _ = List.nth sibs (Random.State.int rng (List.length sibs)) in
            (i, leaf, with_sibling p l (Some other))
        | 2, sibs ->
            (* swap two siblings, or a sibling with the one of a neighbour *)
            let l, s = List.nth sibs (Random.State.int rng (List.length sibs)) in
            let l', s' = List.nth sibs (Random.State.int rng (List.length sibs)) in
            if l = l' then
              let j = (i + 1) mod n in
              (j, ls.(j), with_sibling (proof t j) l (Some s))
            else (i, leaf, with_sibling (with_sibling p l (Some s')) l' (Some s))
        | 3, _ -> ((i + 1 + Random.State.int rng n) mod n, leaf, p)
        | 4, _ -> (i, leaf, List.filteri (fun j _ -> j < List.length p - 1) p)
        | 5, _ -> (i, leaf, p @ [ { sibling = Some other; left = true } ])
        | 6, _ ->
            (i, leaf,
             List.mapi (fun j (st : proof_step) ->
                 if j = step then { st with left = not st.left } else st) p)
        | _, _ -> (i, leaf, with_sibling p step None)
      in
      let candidates =
        List.init (3 * n) (fun _ ->
            let i = Random.State.int rng n in
            let c = (i, ls.(i), proof t i) in
            if Random.State.bool rng then mutate c else c)
      in
      let oracle (i, leaf, p) =
        index_of_path ~n_leaves:n p = Some i && verify ~root ~leaf p
      in
      let agree c =
        List.for_all
          (fun ((index, leaf, p) as cand) ->
            Bool.equal (oracle cand) (admit c ~index ~leaf p))
          candidates
      in
      let c = cache ~n_leaves:n ~root in
      let first = agree c in
      let j = Random.State.int rng n in
      let wrong = Array.mapi (fun i l -> if i = j then flip l else l) ls in
      let rejected = not (complete c ~held:(fun i -> i <> j) wrong) in
      let still = agree c in
      let completed = complete c ~held:(fun _ -> true) ls in
      first && rejected && still && completed && agree c
      && agree (cache_of_tree t))

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
    QCheck_alcotest.to_alcotest prop_tree_matches_reference;
    Alcotest.test_case "leaf/node digest allocation" `Quick test_hash_allocation;
    QCheck_alcotest.to_alcotest prop_cache_matches_oracle;
  ]
