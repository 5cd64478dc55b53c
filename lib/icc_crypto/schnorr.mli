(** Schnorr signatures over {!Group}: the ordinary digital signature scheme
    [S_auth] used to authenticate block proposals (paper §2.2, §3.2).

    Deterministic (derandomised) signing: the nonce is derived from the
    secret key and the message, so equal inputs yield equal signatures. *)

type secret_key
type public_key = { pk : Group.elt }

type signature = {
  challenge : Group.scalar;
  response : Group.scalar;
}

val keygen : (unit -> int) -> secret_key * public_key
(** [keygen rand_bits] draws a fresh key pair from a source of uniform
    61-bit non-negative ints. *)

val public_key_of_secret : secret_key -> public_key
val sign : secret_key -> string -> signature
val verify : public_key -> string -> signature -> bool

val equal : signature -> signature -> bool
(** Byte equality of two signatures (challenge and response). *)

val signature_wire_size : int
(** Modeled production wire size in bytes, used by traffic accounting. *)
