(* Schnorr signatures over {!Group}; the digital signature scheme S_auth of
   the paper (§2.2).  Nonces are derived deterministically from the secret
   key and message (RFC 6979 style) so signing needs no randomness source.

   Signatures are the classic (c, s) pair: verification recomputes the
   commitment R = g^s * pk^(q-c) and checks c against its challenge
   hash. *)

(* The secret key caches its public point: [sign] needs g^sk for the
   challenge hash on every call, and the type is abstract so the cache is
   invisible to clients. *)
type secret_key = { sk : Group.scalar; cached_pk : Group.elt }
type public_key = { pk : Group.elt }

type signature = {
  challenge : Group.scalar;
  response : Group.scalar;
}

let make_secret sk = { sk; cached_pk = Group.base_pow sk }

let keygen rand_bits =
  let sk = Group.random_scalar_nonzero rand_bits in
  let key = make_secret sk in
  (key, { pk = key.cached_pk })

let public_key_of_secret { cached_pk; _ } = { pk = cached_pk }

(* Challenge and nonce hash the same layout, a domain byte, two 8-byte
   group values and the message: 53 bytes, one SHA-256 block, for the
   36-byte signed texts of the protocol. *)
let challenge_hash ~commitment ~pk ~msg =
  Group.scalar_of_hash
    (Group.hash_fields Group.Schnorr_challenge [ commitment; pk ] msg)

let sign { sk; cached_pk } (msg : string) : signature =
  Icc_obs.Profile.span "crypto.schnorr_sign" @@ fun () ->
  Counters.bump Counters.schnorr_signs;
  let nonce =
    Group.scalar_of_hash_nonzero ~tag:"schnorr-nonce"
      (Group.hash_fields Group.Schnorr_nonce [ sk; cached_pk ] msg)
  in
  let commitment = Group.base_pow nonce in
  let challenge = challenge_hash ~commitment ~pk:cached_pk ~msg in
  let response = Group.scalar_add nonce (Group.scalar_mul challenge sk) in
  { challenge; response }

(* Both bases are long-lived (generator, a party public key), so both
   exponentiations go through the fixed-base cache; raising pk to q - c
   instead of inverting pk^c keeps verification inversion-free. *)
let verify { pk } (msg : string) { challenge; response } : bool =
  Icc_obs.Profile.span "crypto.schnorr_verify" @@ fun () ->
  Counters.bump Counters.schnorr_verifies;
  let commitment =
    Group.mul (Group.base_pow response) (Group.pow_cached pk (Group.q - challenge))
  in
  Group.scalar_equal challenge (challenge_hash ~commitment ~pk ~msg)

let equal a b =
  Group.scalar_equal a.challenge b.challenge
  && Group.scalar_equal a.response b.response

(* Modeled wire size: production Schnorr/BLS signatures are 48–64 bytes. *)
let signature_wire_size = 64
