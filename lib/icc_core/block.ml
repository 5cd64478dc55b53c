(* Blocks and the special root (paper §3.4).

   A round-k block is (block, k, alpha, phash, payload); its hash commits to
   all four fields.  The root is its own notarization and finalization.

   The hash is memoized: [create] computes the digest once and carries it in
   the record, so the ~15 [hash] call sites on the party/pool hot path cost
   a field read instead of an encode + SHA-256.  [set_memoization false]
   restores the recompute-every-call behaviour so the benchmark harness can
   measure the difference. *)

type t = {
  round : Types.round;
  proposer : Types.party_id;
  parent_hash : Icc_crypto.Sha256.t;
  payload : Types.payload;
  digest : Icc_crypto.Sha256.t;
}

let root_hash = Icc_crypto.Sha256.digest_string "icc-root"

(* "block|round|proposer|hex parent|hex payload digest".  The payload
   digest is taken first: both use {!Types.digest_with}'s one buffer. *)
let compute_digest ~round ~proposer ~parent_hash ~payload =
  let payload_digest = Types.payload_digest payload in
  Types.digest_with (fun buf ->
      Buffer.add_string buf "block|";
      Types.add_decimal buf round;
      Buffer.add_char buf '|';
      Types.add_decimal buf proposer;
      Buffer.add_char buf '|';
      Icc_crypto.Sha256.add_hex buf parent_hash;
      Buffer.add_char buf '|';
      Icc_crypto.Sha256.add_hex buf payload_digest)

(* §3.5 toggle. *)
let memoize = ref true
let set_memoization on = memoize := on
let memoization_enabled () = !memoize

let hash (b : t) =
  if !memoize then b.digest
  else
    compute_digest ~round:b.round ~proposer:b.proposer
      ~parent_hash:b.parent_hash ~payload:b.payload

let create ~round ~proposer ~parent_hash ~payload =
  if round < 1 then invalid_arg "Block.create: rounds start at 1";
  {
    round;
    proposer;
    parent_hash;
    payload;
    digest = compute_digest ~round ~proposer ~parent_hash ~payload;
  }

(* Modeled wire size: fixed header (round, proposer, parent hash, framing)
   plus declared payload bytes. *)
let header_wire_size = 64
let wire_size (b : t) = header_wire_size + Types.payload_size b.payload
