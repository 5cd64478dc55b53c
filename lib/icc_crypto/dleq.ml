(* Chaum–Pedersen non-interactive proofs of discrete-log equality:
   given (g, h, a, b), prove knowledge of x with a = g^x and b = h^x.

   Used to verify beacon signature shares: party i proves that its share
   H2G(m)^{sk_i} uses the same exponent as its public verification key
   g^{sk_i}.  This is the share-verification mechanism of the
   Cachin–Kursawe–Shoup threshold coin (paper reference [10]).

   Proofs carry the two commitments (k1, k2) = (base1^nonce,
   base2^nonce) alongside the classic (c, s) pair.  The (c, s) form
   recomputes them during verification as base1^s * a^-c, which costs a
   group inversion; carrying them turns verification into a hash check
   plus two inversion-free group equations (DESIGN.md §3.10).  The
   commitments are redundant given (c, s), so modeled wire sizes are
   unchanged. *)

type proof = {
  challenge : Group.scalar;
  response : Group.scalar;
  commit1 : Group.elt; (* base1^nonce; carried for inversion-free verify *)
  commit2 : Group.elt; (* base2^nonce; carried for inversion-free verify *)
}

(* A domain byte and the six elements as 8-byte big-endian values: 49
   bytes, one SHA-256 block. *)
let challenge_hash ~base1 ~base2 ~a ~b ~commit1 ~commit2 =
  Group.scalar_of_hash
    (Group.hash_fields Group.Dleq_challenge
       [ base1; base2; a; b; commit1; commit2 ]
       "")

let prove ~base1 ~base2 ~exponent ~msg_tag =
  Icc_obs.Profile.span "crypto.dleq_prove" @@ fun () ->
  Counters.bump Counters.dleq_proves;
  let x = Group.scalar_reduce exponent in
  (* base1 is the long-lived generator at every call site; base2 is the
     round's message point, shared by every share of that round (n
     proofs and up to n verifications), so it earns a fixed-base table
     too — the probation/eviction cache absorbs the per-round churn. *)
  let a = Group.pow_cached base1 x and b = Group.pow_cached base2 x in
  (* Deterministic nonce (the prover holds x, so this is safe). *)
  let nonce =
    Group.scalar_of_hash_nonzero ~tag:"dleq-nonce"
      (Group.hash_fields Group.Dleq_nonce [ x; base1; base2 ] msg_tag)
  in
  let commit1 = Group.pow_cached base1 nonce
  and commit2 = Group.pow_cached base2 nonce in
  let challenge = challenge_hash ~base1 ~base2 ~a ~b ~commit1 ~commit2 in
  let response = Group.scalar_add nonce (Group.scalar_mul challenge x) in
  { challenge; response; commit1; commit2 }

(* Verification is the challenge-hash check, then the group equations
     base1^s = k1 * a^c  and  base2^s = k2 * b^c.
   If they hold, k1/k2 are forced into the QR subgroup, so
   attacker-supplied commitments need no separate membership check.
   base1 (generator), base2 (the round's shared message point) and a (a
   verification key) ride the fixed-base cache; b is a per-share value
   seen at most twice and stays on generic pow. *)
let verify ~base1 ~base2 ~a ~b { challenge; response; commit1; commit2 } =
  Icc_obs.Profile.span "crypto.dleq_verify" @@ fun () ->
  Counters.bump Counters.dleq_verifies;
  Group.scalar_equal challenge
    (challenge_hash ~base1 ~base2 ~a ~b ~commit1 ~commit2)
  && Group.elt_equal
       (Group.pow_cached base1 response)
       (Group.mul commit1 (Group.pow_cached a challenge))
  && Group.elt_equal
       (Group.pow_cached base2 response)
       (Group.mul commit2 (Group.pow b challenge))
