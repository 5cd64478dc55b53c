(* Chaum–Pedersen DLEQ proof tests. *)

let rng = Icc_sim.Rng.create 0xd1e0
let rand_bits () = Icc_sim.Rng.bits61 rng

let fresh_bases () =
  let h =
    Icc_crypto.Group.hash_to_group
      (Icc_crypto.Sha256.digest_string (string_of_int (rand_bits ())))
  in
  (Icc_crypto.Group.generator, h)

let test_accepts_honest () =
  let base1, base2 = fresh_bases () in
  let x = Icc_crypto.Group.random_scalar rand_bits in
  let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
  Alcotest.(check bool) "valid" true
    (Icc_crypto.Dleq.verify ~base1 ~base2
       ~a:(Icc_crypto.Group.pow base1 x)
       ~b:(Icc_crypto.Group.pow base2 x)
       proof)

let test_rejects_mismatched_exponents () =
  let base1, base2 = fresh_bases () in
  let x = Icc_crypto.Group.random_scalar rand_bits in
  let y = Icc_crypto.Group.scalar_add x 1 in
  let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
  Alcotest.(check bool) "a=g^x, b=h^y rejected" false
    (Icc_crypto.Dleq.verify ~base1 ~base2
       ~a:(Icc_crypto.Group.pow base1 x)
       ~b:(Icc_crypto.Group.pow base2 y)
       proof)

let test_rejects_tampered_proof () =
  let base1, base2 = fresh_bases () in
  let x = Icc_crypto.Group.random_scalar rand_bits in
  let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
  let bad =
    {
      proof with
      Icc_crypto.Dleq.response =
        Icc_crypto.Group.scalar_add proof.Icc_crypto.Dleq.response 1;
    }
  in
  Alcotest.(check bool) "tampered" false
    (Icc_crypto.Dleq.verify ~base1 ~base2
       ~a:(Icc_crypto.Group.pow base1 x)
       ~b:(Icc_crypto.Group.pow base2 x)
       bad)

let prop_roundtrip =
  QCheck.Test.make ~name:"dleq roundtrip" ~count:60 QCheck.small_string
    (fun tag ->
      let base1, base2 = fresh_bases () in
      let x = Icc_crypto.Group.random_scalar rand_bits in
      let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:tag in
      Icc_crypto.Dleq.verify ~base1 ~base2
        ~a:(Icc_crypto.Group.pow base1 x)
        ~b:(Icc_crypto.Group.pow base2 x)
        proof)

let prop_wrong_statement_rejected =
  QCheck.Test.make ~name:"dleq rejects wrong statement" ~count:60
    (QCheck.int_range 1 1_000_000) (fun delta ->
      let base1, base2 = fresh_bases () in
      let x = Icc_crypto.Group.random_scalar rand_bits in
      let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
      not
        (Icc_crypto.Dleq.verify ~base1 ~base2
           ~a:(Icc_crypto.Group.pow base1 x)
           ~b:(Icc_crypto.Group.pow base2 (Icc_crypto.Group.scalar_add x delta))
           proof))

(* Every tamper kind of a share's proof or statement is rejected by the
   single verify, and the untampered proof is accepted: response + 1,
   challenge + 1, either commitment times g, a wrong [b], [a] shifted by
   one factor of [g], [a] and [b] swapped, and another [base2].  Together
   they alter each of the six elements the challenge hashes. *)
let prop_tampered_rejected =
  QCheck.Test.make ~name:"dleq rejects every tamper kind" ~count:60
    QCheck.small_string (fun tag ->
      let module G = Icc_crypto.Group in
      let module D = Icc_crypto.Dleq in
      let base1, base2 = fresh_bases () in
      let _, other_base2 = fresh_bases () in
      let x = G.random_scalar rand_bits in
      let proof = D.prove ~base1 ~base2 ~exponent:x ~msg_tag:tag in
      let a = G.pow base1 x and b = G.pow base2 x in
      let verify (base2, a, b, pf) = D.verify ~base1 ~base2 ~a ~b pf in
      verify (base2, a, b, proof)
      && List.for_all
           (fun item -> not (verify item))
           [
             (base2, a, b, { proof with D.response = G.scalar_add proof.D.response 1 });
             (base2, a, b, { proof with D.challenge = G.scalar_add proof.D.challenge 1 });
             (base2, a, b, { proof with D.commit1 = G.mul proof.D.commit1 G.generator });
             (base2, a, b, { proof with D.commit2 = G.mul proof.D.commit2 G.generator });
             (base2, a, G.pow base2 (G.scalar_add x 1), proof);
             (base2, G.mul a G.generator, b, proof);
             (base2, b, a, proof);
             (other_base2, a, b, proof);
           ])

let suite =
  [
    Alcotest.test_case "accepts honest" `Quick test_accepts_honest;
    Alcotest.test_case "rejects mismatch" `Quick test_rejects_mismatched_exponents;
    Alcotest.test_case "rejects tampered" `Quick test_rejects_tampered_proof;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_wrong_statement_rejected;
    QCheck_alcotest.to_alcotest prop_tampered_rejected;
  ]
