(* GF(256), matrix and Reed–Solomon tests. *)

let rng = Icc_sim.Rng.create 0x8f

let test_gf_tables () =
  Alcotest.(check int) "1*1" 1 (Icc_erasure.Gf256.mul 1 1);
  Alcotest.(check int) "a*0" 0 (Icc_erasure.Gf256.mul 77 0);
  Alcotest.(check int) "2*2" 4 (Icc_erasure.Gf256.mul 2 2);
  (* AES reduction: 0x80 * 2 = 0x1b *)
  Alcotest.(check int) "0x80*2" 0x1b (Icc_erasure.Gf256.mul 0x80 2);
  Alcotest.(check int) "known product" 0xc1 (Icc_erasure.Gf256.mul 0x57 0x83)

let test_gf_inverses () =
  for a = 1 to 255 do
    Alcotest.(check int)
      (Printf.sprintf "inv %d" a)
      1
      (Icc_erasure.Gf256.mul a (Icc_erasure.Gf256.inv a))
  done

let prop_gf_field_axioms =
  QCheck.Test.make ~name:"gf256 field axioms" ~count:300
    (QCheck.triple (QCheck.int_bound 255) (QCheck.int_bound 255)
       (QCheck.int_bound 255)) (fun (a, b, c) ->
      let open Icc_erasure.Gf256 in
      mul a (mul b c) = mul (mul a b) c
      && mul a b = mul b a
      && mul a (add b c) = add (mul a b) (mul a c)
      && add (add a b) b = a)

let test_matrix_invert_roundtrip () =
  let points = [| 1; 2; 3; 4; 5 |] in
  let v = Icc_erasure.Matrix.vandermonde ~points ~cols:5 in
  let vi = Icc_erasure.Matrix.invert v in
  let prod = Icc_erasure.Matrix.mul v vi in
  let id = Icc_erasure.Matrix.identity 5 in
  Alcotest.(check bool) "V * V^-1 = I" true (prod = id)

let test_matrix_singular () =
  let m = [| [| 1; 2 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "singular" Icc_erasure.Matrix.Singular (fun () ->
      ignore (Icc_erasure.Matrix.invert m))

let random_string len =
  String.init len (fun _ -> Char.chr (Icc_sim.Rng.int rng 256))

let test_rs_systematic_roundtrip () =
  let data = random_string 1000 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:3 ~n:9 data in
  Alcotest.(check int) "9 fragments" 9
    (Array.length coded.Icc_erasure.Reed_solomon.fragments);
  (* systematic: fragments 0..k-1 concatenate back to the (padded) data *)
  let rebuilt =
    String.concat ""
      [
        coded.Icc_erasure.Reed_solomon.fragments.(0);
        coded.Icc_erasure.Reed_solomon.fragments.(1);
        coded.Icc_erasure.Reed_solomon.fragments.(2);
      ]
  in
  Alcotest.(check string) "systematic prefix" data (String.sub rebuilt 0 1000)

let test_rs_decode_any_subset () =
  let data = random_string 500 in
  let k = 3 and n = 7 in
  let coded = Icc_erasure.Reed_solomon.encode ~k ~n data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  List.iter
    (fun idxs ->
      match
        Icc_erasure.Reed_solomon.decode ~k ~n ~data_size:500
          (List.map frag idxs)
      with
      | Some d ->
          Alcotest.(check string)
            (Printf.sprintf "subset %s"
               (String.concat "," (List.map string_of_int idxs)))
            data d
      | None -> Alcotest.fail "decode failed")
    [ [ 0; 1; 2 ]; [ 4; 5; 6 ]; [ 0; 3; 6 ]; [ 2; 4; 5 ]; [ 6; 1; 3 ] ]

let test_rs_too_few_fragments () =
  let data = random_string 100 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:3 ~n:5 data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  Alcotest.(check bool) "2 < k" true
    (Icc_erasure.Reed_solomon.decode ~k:3 ~n:5 ~data_size:100 [ frag 0; frag 4 ]
    = None)

let test_rs_duplicate_fragments_dont_count () =
  let data = random_string 100 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:3 ~n:5 data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  Alcotest.(check bool) "dups filtered" true
    (Icc_erasure.Reed_solomon.decode ~k:3 ~n:5 ~data_size:100
       [ frag 0; frag 0; frag 0; frag 1 ]
    = None)

(* The RBC's consistency check re-encodes what k fragments decode to: a
   codeword's fragments re-encode to themselves, and a corrupted fragment
   beyond the k that decode uses differs from its re-encoding. *)
let test_rs_reencode_check () =
  let data = random_string 300 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:2 ~n:6 data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  let reencode frags =
    match Icc_erasure.Reed_solomon.decode ~k:2 ~n:6 ~data_size:300 frags with
    | Some d -> (Icc_erasure.Reed_solomon.encode ~k:2 ~n:6 d).fragments
    | None -> Alcotest.fail "two fragments decode"
  in
  Alcotest.(check (array string)) "consistent"
    coded.Icc_erasure.Reed_solomon.fragments
    (reencode [ frag 3; frag 5 ]);
  let corrupted = String.map (fun c -> Char.chr (Char.code c lxor 1))
                    coded.Icc_erasure.Reed_solomon.fragments.(3) in
  Alcotest.(check bool) "corruption detected" false
    (String.equal corrupted (reencode [ frag 0; frag 1; (3, corrupted) ]).(3))

let prop_rs_roundtrip =
  QCheck.Test.make ~name:"reed-solomon roundtrip" ~count:40
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 0 400))
    (fun (t, len) ->
      let k = t + 1 and n = (3 * t) + 1 in
      let data = random_string len in
      let coded = Icc_erasure.Reed_solomon.encode ~k ~n data in
      (* drop t random fragments, decode from the rest *)
      let all = Array.to_list (Array.mapi (fun i f -> (i, f)) coded.Icc_erasure.Reed_solomon.fragments) in
      let arr = Array.of_list all in
      Icc_sim.Rng.shuffle_in_place rng arr;
      let kept = Array.to_list (Array.sub arr 0 (n - t)) in
      match Icc_erasure.Reed_solomon.decode ~k ~n ~data_size:len kept with
      | Some d -> String.equal d data
      | None -> false)

(* Encoding against the per-byte product of the encoding matrix with the
   zero-padded data matrix, and decoding from a random k-subset. *)
let prop_rs_matches_matrix_reference =
  QCheck.Test.make ~name:"reed-solomon matches per-byte matrix reference"
    ~count:60
    (QCheck.triple (QCheck.int_range 1 32) (QCheck.int_range 1 32)
       (QCheck.string_of_size (QCheck.Gen.int_range 0 3000)))
    (fun (a, b, data) ->
      let open Icc_erasure in
      let k = min a b and n = max a b and len = String.length data in
      let coded = Reed_solomon.encode ~k ~n data in
      let fs = max 1 ((len + k - 1) / k) in
      let d =
        Array.init k (fun j ->
            Array.init fs (fun pos ->
                let idx = (j * fs) + pos in
                if idx < len then Char.code data.[idx] else 0))
      in
      let v = Matrix.vandermonde ~points:(Array.init n (fun i -> i + 1)) ~cols:k in
      let e = Matrix.mul v (Matrix.invert (Array.sub v 0 k)) in
      let expected = Matrix.mul e d in
      let idx = Array.init n Fun.id in
      Icc_sim.Rng.shuffle_in_place rng idx;
      let subset = List.init k (fun r -> (idx.(r), coded.fragments.(idx.(r)))) in
      Array.for_all2
        (fun frag row ->
          String.equal frag (String.init fs (fun p -> Char.chr row.(p))))
        coded.fragments expected
      && Option.equal String.equal
           (Reed_solomon.decode ~k ~n ~data_size:len subset)
           (Some data))

let test_rs_bad_params () =
  Alcotest.check_raises "k > n"
    (Invalid_argument "Reed_solomon.encode: need 1 <= k <= n <= 255")
    (fun () -> ignore (Icc_erasure.Reed_solomon.encode ~k:5 ~n:4 "x"))

let suite =
  [
    Alcotest.test_case "gf tables" `Quick test_gf_tables;
    Alcotest.test_case "gf inverses" `Quick test_gf_inverses;
    QCheck_alcotest.to_alcotest prop_gf_field_axioms;
    Alcotest.test_case "matrix invert" `Quick test_matrix_invert_roundtrip;
    Alcotest.test_case "matrix singular" `Quick test_matrix_singular;
    Alcotest.test_case "rs systematic" `Quick test_rs_systematic_roundtrip;
    Alcotest.test_case "rs any subset" `Quick test_rs_decode_any_subset;
    Alcotest.test_case "rs too few" `Quick test_rs_too_few_fragments;
    Alcotest.test_case "rs duplicates" `Quick test_rs_duplicate_fragments_dont_count;
    Alcotest.test_case "rs reencode check" `Quick test_rs_reencode_check;
    QCheck_alcotest.to_alcotest prop_rs_roundtrip;
    QCheck_alcotest.to_alcotest prop_rs_matches_matrix_reference;
    Alcotest.test_case "rs bad params" `Quick test_rs_bad_params;
  ]
