(* SHA-256 against the NIST FIPS 180-4 / Cryptographic Algorithm Validation
   Program vectors, plus structural properties. *)

let check_vector name input expected_hex =
  Alcotest.(check string)
    name expected_hex
    (Icc_crypto.Sha256.to_hex (Icc_crypto.Sha256.digest_string input))

let test_nist_vectors () =
  check_vector "empty" ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check_vector "abc" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_vector "two blocks"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check_vector "four blocks"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"

let test_million_a () =
  check_vector "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_boundary_lengths () =
  (* Lengths 0..129 straddle the 55/56/64-byte padding boundaries of one
     and two blocks.  Pinned: SHA-256 of the concatenated hex digests of
     [String.make i 'x'], as computed by Python's hashlib. *)
  let digests =
    List.init 130 (fun i ->
        Icc_crypto.Sha256.to_hex
          (Icc_crypto.Sha256.digest_string (String.make i 'x')))
  in
  Alcotest.(check string)
    "pinned" "199af942eba7fa5d1e16d475169eb24018b14e69339c93d26a9ea6d873b4ace6"
    (Icc_crypto.Sha256.to_hex
       (Icc_crypto.Sha256.digest_string (String.concat "" digests)))

let test_bytes_and_string_agree () =
  let s = "internet computer consensus" in
  Alcotest.(check string)
    "agree"
    (Icc_crypto.Sha256.to_hex (Icc_crypto.Sha256.digest_string s))
    (Icc_crypto.Sha256.to_hex (Icc_crypto.Sha256.digest_bytes (Bytes.of_string s)))

let test_to_int61 () =
  let d = Icc_crypto.Sha256.digest_string "x" in
  let v = Icc_crypto.Sha256.to_int61 d in
  Alcotest.(check bool) "in range" true (v >= 0 && v < 1 lsl 61);
  Alcotest.(check int) "deterministic" v
    (Icc_crypto.Sha256.to_int61 (Icc_crypto.Sha256.digest_string "x"))

let prop_deterministic =
  QCheck.Test.make ~name:"sha256 deterministic" ~count:100
    QCheck.string (fun s ->
      Icc_crypto.Sha256.equal
        (Icc_crypto.Sha256.digest_string s)
        (Icc_crypto.Sha256.digest_string s))

let prop_injective_on_sample =
  QCheck.Test.make ~name:"sha256 no collisions on random pairs" ~count:200
    (QCheck.pair QCheck.string QCheck.string) (fun (a, b) ->
      String.equal a b
      || not
           (Icc_crypto.Sha256.equal
              (Icc_crypto.Sha256.digest_string a)
              (Icc_crypto.Sha256.digest_string b)))

(* The hex forms against a [Printf "%02x"] fold. *)
let prop_hex_matches_printf =
  QCheck.Test.make ~name:"sha256 to_hex/short_hex match Printf" ~count:200
    (QCheck.string_of_size (QCheck.Gen.return 32)) (fun raw ->
      let d = Icc_crypto.Sha256.of_raw raw in
      let hex =
        String.concat ""
          (List.map
             (fun c -> Printf.sprintf "%02x" (Char.code c))
             (List.of_seq (String.to_seq raw)))
      in
      String.equal (Icc_crypto.Sha256.to_hex d) hex
      && String.equal (Icc_crypto.Sha256.short_hex d) (String.sub hex 0 12))

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_nist_vectors;
    Alcotest.test_case "million 'a'" `Slow test_million_a;
    Alcotest.test_case "padding boundaries" `Quick test_boundary_lengths;
    Alcotest.test_case "bytes/string agree" `Quick test_bytes_and_string_agree;
    Alcotest.test_case "to_int61" `Quick test_to_int61;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_injective_on_sample;
    QCheck_alcotest.to_alcotest prop_hex_matches_printf;
  ]
