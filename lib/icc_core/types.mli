(** Shared identifiers, commands, and the canonical signed-text encodings of
    the ICC protocols (paper §3.4).

    Every protocol signature is over one of the strings built here, so
    authenticators, notarizations, finalizations and beacon shares are
    domain-separated and bound to (round, proposer, block hash). *)

type party_id = int
(** 1-based party index. *)

type round = int
(** Rounds are ≥ 1; 0 denotes the root. *)

type rank = int
(** 0 is the round's leader. *)

type command = {
  cmd_id : int;
  cmd_size : int;  (** Modeled payload bytes. *)
  submitted_at : float;
  tag : string;  (** Opaque application data (e.g. an SMR operation). *)
}

val command :
  ?tag:string -> cmd_id:int -> cmd_size:int -> submitted_at:float -> unit ->
  command

type payload = {
  commands : command list;
  filler_size : int;  (** Additional modeled bytes (management data). *)
}

val empty_payload : payload
val payload_size : payload -> int
val payload_digest : payload -> Icc_crypto.Sha256.t
(** SHA-256 of the filler size followed by [",id:tag"] per command, ids
    and sizes in decimal. *)

val digest_with : (Buffer.t -> unit) -> Icc_crypto.Sha256.t
(** [digest_with write] is the digest of what [write] appends to an empty
    buffer.  The buffer is one scratch buffer reused by every call, so
    [write] must not call [digest_with] (or {!payload_digest}) itself. *)

val add_decimal : Buffer.t -> int -> unit
(** Appends [string_of_int n] without building it. *)

(** {1 Signed-text encodings}

    One kind byte ([0x01] authenticator, [0x02] notarization, [0x03]
    finalization), the 32 raw digest bytes, then LEB128 round and
    proposer ({!Leb128}).  Injective for every int; 36 bytes for
    round < 2^14 and proposer < 128, so a Schnorr challenge over a text
    is one SHA-256 block. *)

val authenticator_text :
  round:round -> proposer:party_id -> block_hash:Icc_crypto.Sha256.t -> string

val notarization_text :
  round:round -> proposer:party_id -> block_hash:Icc_crypto.Sha256.t -> string

val finalization_text :
  round:round -> proposer:party_id -> block_hash:Icc_crypto.Sha256.t -> string

val beacon_genesis : string
(** The fixed value R_0 of the random-beacon chain. *)

val beacon_text : round:round -> prev_sigma:string -> string
(** The message whose unique threshold signature is R_[round]. *)

(** {1 Wire objects} *)

type cert = {
  c_round : round;
  c_proposer : party_id;
  c_block_hash : Icc_crypto.Sha256.t;
  c_multisig : Icc_crypto.Multisig.signature;
}
(** A notarization or finalization: an (n-t)-multisignature on the
    corresponding text. *)

type share_msg = {
  s_round : round;
  s_proposer : party_id;
  s_block_hash : Icc_crypto.Sha256.t;
  s_share : Icc_crypto.Multisig.share;
}
(** A single party's notarization or finalization share. *)
