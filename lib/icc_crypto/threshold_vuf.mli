(** (t, t+1, n)-threshold unique signatures backing the random beacon
    ([S_beacon], paper §2.3 approach (iii) / §3.2): the DDH-based threshold
    coin of Cachin–Kursawe–Shoup, a pairing-free analogue of threshold BLS.

    The signature on [m] is the unique group element [H2G(m)^s] for the
    Shamir-shared secret [s]; shares carry Chaum–Pedersen proofs. *)

type params = {
  threshold_t : int;
  n : int;
  global_pk : Group.elt;
  verification_keys : Group.elt array;
}

type secret_share = {
  owner : int;  (** 1-based party index. *)
  sk_i : Group.scalar;
}

type signature_share = {
  signer : int;
  value : Group.elt;
  proof : Dleq.proof;
}

type signature = {
  sigma : Group.elt;
  certificate : signature_share list;
}

val setup : threshold_t:int -> n:int -> (unit -> int) -> params * secret_share list
(** Trusted-dealer key generation. *)

val sign_share : params -> secret_share -> string -> signature_share
val verify_share : params -> string -> signature_share -> bool

(** {2 Point-taking entry points}

    Every share of a message [m], signed or checked, starts from the same
    message point [H2G(SHA-256 m)].  {!sign_share} and {!verify_share}
    recompute it on each call; a caller that handles many shares of one
    message computes it once with {!message_point} and passes it to the
    [_at] variants, which give the same results. *)

val message_point : string -> Group.elt
(** [H2G(SHA-256 m)]: the base every share of [m] is a power of. *)

val sign_share_at :
  params -> secret_share -> point:Group.elt -> string -> signature_share
(** [sign_share_at p sk ~point m] is [sign_share p sk m] when
    [point = message_point m].  [m] still seeds the proof's nonce. *)

val verify_share_at : params -> point:Group.elt -> signature_share -> bool
(** [verify_share_at p ~point s] is [verify_share p m s] when
    [point = message_point m]. *)

val share_equal : signature_share -> signature_share -> bool
(** Byte equality of two shares: signer, value and every proof field.  A
    byte-equal copy verifies exactly when the original does. *)

val combine : params -> string -> signature_share list -> signature option
(** Returns [None] when fewer than [t+1] distinct valid shares are given;
    invalid or duplicate shares are filtered, not fatal. *)

val combine_preverified : params -> signature_share list -> signature option
(** Like {!combine}, but trusts the caller to have already checked every
    share with {!verify_share} and skips re-verification; the pool checks
    only the t+1 lowest signers it hands over (see
    [Icc_core.Pool.verified_beacon_shares]).  Applies the identical
    signer-dedup/selection rule, so it yields the same [sigma] as
    {!combine} over the same shares. *)

val verify : params -> string -> signature -> bool
(** Full verification: checks the (t+1)-share certificate and that the
    claimed value equals its interpolation.  Uniqueness: any two signatures
    on the same message that verify have equal [sigma]. *)

val randomness : string -> signature -> Sha256.t
(** The beacon output: a hash binding message and unique signature. *)

val share_wire_size : int
