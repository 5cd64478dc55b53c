(** (t, h, n)-threshold signatures by aggregation of individual Schnorr
    signatures — the notarization ([S_notary]) and finalization ([S_final])
    schemes of the paper, used with [h = n - t].

    The paper's §2.3 lists this (approach (i)) as a valid instantiation;
    like BLS multi-signatures (approach (ii)) the combined signature
    identifies its [h] signatories. *)

type params = {
  n : int;
  threshold_h : int;
  public_keys : Schnorr.public_key array;
}

type secret = {
  owner : int;  (** 1-based party index. *)
  key : Schnorr.secret_key;
}

type share = {
  signer : int;
  signature : Schnorr.signature;
}

type signature = {
  signers : int list;
  signatures : Schnorr.signature list;
}

val setup : threshold_h:int -> n:int -> (unit -> int) -> params * secret list
val sign_share : params -> secret -> string -> share
val verify_share : params -> string -> share -> bool

val verify_shares :
  ?known:(share -> bool) -> params -> string -> share list -> bool list
(** Per-share verdicts: {!verify_share} mapped over the shares, so a
    forged share is identified exactly.

    [?known] lets a caller that has already verified a share skip its
    Schnorr equation: a share for which [known] returns [true] is judged
    by the signer range check alone.  [known] must only vouch for a share
    whose exact (signer, signature) pair the caller has verified on this
    very message; verdicts then equal those without [?known].  The
    default vouches for nothing. *)

val combine :
  ?known:(share -> bool) -> params -> string -> share list -> signature option
(** [None] when fewer than [threshold_h] distinct valid shares remain after
    filtering invalid and duplicate ones.  [?known] as in
    {!verify_shares}. *)

val verify : ?known:(share -> bool) -> params -> string -> signature -> bool
(** Threshold count, equal list lengths, sorted distinct signers, then
    every member through {!verify_shares} (with [?known]). *)

val share_wire_size : int
val signature_wire_size : params -> int
