(** Chaum–Pedersen non-interactive discrete-log-equality proofs, used to
    verify random-beacon signature shares. *)

type proof = {
  challenge : Group.scalar;
  response : Group.scalar;
  commit1 : Group.elt;
  commit2 : Group.elt;
      (** The prover's commitments [base1^nonce] / [base2^nonce].
          Redundant given [(challenge, response)] — the classic form
          recomputes them — but carrying them makes proofs
          batch-verifiable ({!verify_batch}) and single verification
          inversion-free.  Modeled wire sizes are unchanged. *)
}

val prove :
  base1:Group.elt ->
  base2:Group.elt ->
  exponent:int ->
  msg_tag:string ->
  proof
(** [prove ~base1 ~base2 ~exponent ~msg_tag] proves that
    [base1^exponent] and [base2^exponent] share the exponent.  [msg_tag]
    only seeds the deterministic nonce. *)

val verify :
  base1:Group.elt -> base2:Group.elt -> a:Group.elt -> b:Group.elt ->
  proof -> bool
(** [verify ~base1 ~base2 ~a ~b proof] checks that [a = base1^x] and
    [b = base2^x] for a common (unknown) [x]. *)

val verify_batch :
  base1:Group.elt ->
  base2:Group.elt ->
  (Group.elt * Group.elt * proof) list ->
  bool list
(** [verify_batch ~base1 ~base2 \[(a1, b1, p1); ...\]] returns per-item
    verdicts identical to mapping {!verify} (up to the ~2^-32 RLC
    false-accept bound) for proofs sharing a base pair — exactly the
    shape of one beacon round's share set.  With batching enabled the
    chunked combined equation amortises the group work; a failing chunk
    falls back to per-item equations, so culprits are identified
    exactly. *)
