(** Chaum–Pedersen non-interactive discrete-log-equality proofs, used to
    verify random-beacon signature shares. *)

type proof = {
  challenge : Group.scalar;
  response : Group.scalar;
  commit1 : Group.elt;
  commit2 : Group.elt;
      (** The prover's commitments [base1^nonce] / [base2^nonce].
          Redundant given [(challenge, response)] — the classic form
          recomputes them — but carrying them makes verification
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
