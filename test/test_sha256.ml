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

(* [String.init n] of the byte pattern (i*31) mod 251: no two adjacent
   words alike, so a misplaced schedule word or state word shows. *)
let pattern n = String.init n (fun i -> Char.chr (i * 31 mod 251))

let test_pattern_lengths () =
  (* Lengths 0..300 cover up to four full blocks hashed in place before
     the padded tail, all through the one module-level scratch.  Pinned:
     SHA-256 of the concatenated hex digests, as computed by Python's
     hashlib. *)
  let digests =
    List.init 301 (fun i ->
        Icc_crypto.Sha256.to_hex (Icc_crypto.Sha256.digest_string (pattern i)))
  in
  Alcotest.(check string)
    "pinned" "c602283fac6ddb44741aa4abae9d3d09c2d161b9908474e60db7cb91e61dd77c"
    (Icc_crypto.Sha256.to_hex
       (Icc_crypto.Sha256.digest_string (String.concat "" digests)))

let test_scratch_reuse () =
  (* A long input leaves the scratch state, schedule and tail dirty; the
     next, short digest must still be the fresh-process one (Python's
     hashlib). *)
  check_vector "long" (pattern 1000)
    "f3f55c45264850b8475533289ff43ab81fa1eb3bf781267db645e1ce0c193379";
  check_vector "short after long" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_vector "one block after short" (pattern 53)
    "255b6d1b1db9e8d1c6958ce0025612ddf30ef80a8d6d3ade69352b6b93e55e18"

let test_one_block_allocation () =
  (* A one-block digest allocates its 32-byte result (a header and five
     words) and nothing else. *)
  if Sys.backend_type = Sys.Native then begin
    let input = Bytes.of_string (pattern 53) in
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Icc_crypto.Sha256.digest_bytes input))
    done;
    let per_digest = (Gc.minor_words () -. before) /. 1000. in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f minor words per digest <= 6" per_digest)
      true (per_digest <= 6.)
  end

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

(* [digest_subbytes] hashes a range in place: the same digest as the
   range copied out, for ranges crossing block and padding boundaries. *)
let prop_subbytes_matches_sub =
  QCheck.Test.make ~name:"sha256 digest_subbytes = digest of the range"
    ~count:200
    QCheck.(triple (string_of_size (Gen.int_range 0 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let len = String.length s in
      let off = if len = 0 then 0 else a mod (len + 1) in
      let n = if len - off = 0 then 0 else b mod (len - off + 1) in
      Icc_crypto.Sha256.(
        equal
          (digest_subbytes (Bytes.of_string s) off n)
          (digest_string (String.sub s off n))))

let test_subbytes_range () =
  Alcotest.check_raises "past the end"
    (Invalid_argument "Sha256.digest_subbytes") (fun () ->
      ignore (Icc_crypto.Sha256.digest_subbytes (Bytes.create 10) 4 7))

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_nist_vectors;
    Alcotest.test_case "million 'a'" `Slow test_million_a;
    Alcotest.test_case "padding boundaries" `Quick test_boundary_lengths;
    Alcotest.test_case "pattern lengths 0..300" `Quick test_pattern_lengths;
    Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse;
    Alcotest.test_case "one-block allocation" `Quick test_one_block_allocation;
    Alcotest.test_case "bytes/string agree" `Quick test_bytes_and_string_agree;
    Alcotest.test_case "to_int61" `Quick test_to_int61;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_injective_on_sample;
    QCheck_alcotest.to_alcotest prop_hex_matches_printf;
    QCheck_alcotest.to_alcotest prop_subbytes_matches_sub;
    Alcotest.test_case "subbytes range" `Quick test_subbytes_range;
  ]
