(** A party's message pool (paper §3.1, §3.4): all received messages,
    indexed for incremental evaluation of the block-classification
    predicates {e authentic}, {e valid}, {e notarized}, {e finalized}.

    A signature is verified at most once per party, and only while it can
    still change the pool: beacon shares are verified when the beacon is
    combined, a notarization or finalization share is not verified once
    the block holds the certificate of its kind, and the party's own
    values ([?own]) are not verified at all.  Messages failing
    verification are dropped.  Classification is monotone and maintained
    by a promotion cascade (a block becomes valid when authentic with a
    notarized parent; promoting a block re-examines its children). *)

type key = Types.round * Icc_crypto.Sha256.t

type t

val create : ?payload_valid:(Block.t -> bool) -> Icc_crypto.Keygen.system -> t
(** [payload_valid] is the application-specific validity hook (default
    accepts everything). *)

(** {1 Admission} — each returns [true] when the pool gained information.

    [?own] (default [false]) says the value is the party's own, signed
    with its own key and handed back by its own broadcast: its signature
    is admitted without a check.  The caller vouches by identity with the
    value it produced, never by signer id; a copy from a peer, even
    byte-equal, is admitted with [own = false] and verified. *)

val add_block : t -> Block.t -> bool

val add_authenticator :
  ?own:bool -> t -> round:Types.round -> proposer:Types.party_id ->
  block_hash:Icc_crypto.Sha256.t -> Icc_crypto.Schnorr.signature -> bool

val add_notarization : t -> Types.cert -> bool
val add_finalization : t -> Types.cert -> bool
val add_notarization_share : ?own:bool -> t -> Types.share_msg -> bool
val add_finalization_share : ?own:bool -> t -> Types.share_msg -> bool
(** A share is verified at most once per party, and only while no
    certificate of its kind is held for its block:
    - A repeated signer is a no-op ([false]).
    - Once the block's entry holds a certificate of the share's kind, a
      share from an in-range signer not seen before is neither verified
      nor stored; its signer is recorded, so a copy stays a no-op.  The
      admission still returns [true]: nothing reads those shares any more
      (the certificate finishes the block as soon as it is valid, and
      {!retransmit_set} re-sends the certificate), but [changed] is what
      runs the party's guards, and answering [false] would move that run
      within its timestamp.  An out-of-range signer returns [false].  So
      {!notar_share_count} and {!final_share_count} count the shares
      stored before the certificate.
    - Otherwise the share is verified, unless [own]; certificate members
      whose exact (signer, signature) pair the key's pooled shares hold,
      under the same proposer, skip the Schnorr equation (see
      {!known_share}).  Verdicts are those of a fresh verification. *)

val known_share :
  t ->
  [ `Notarization | `Finalization ] ->
  key ->
  proposer:Types.party_id ->
  Icc_crypto.Multisig.share ->
  bool
(** [known_share t kind key ~proposer] is a [?known] predicate for
    {!Icc_crypto.Multisig.combine}/[verify] on the [kind] text of [key]
    named with [proposer]: [true] for a share this pool already verified on
    exactly that text.  The key is looked up once, on partial
    application.  A share set whose members named different proposers
    vouches for nothing. *)

val add_beacon_share :
  ?own:bool ->
  t ->
  round:Types.round ->
  ?verify:(Icc_crypto.Threshold_vuf.signature_share -> bool) ->
  Icc_crypto.Threshold_vuf.signature_share ->
  bool
(** Beacon shares are admitted unverified, deduplicated by signer: the
    beacon needs only t+1 of them, and {!verified_beacon_shares} checks
    those when it combines.  Shares whose signer is outside [1..n] are
    rejected and never stored, and a byte-equal copy of a slot's occupant
    is dropped without verifying anything.  [?verify] (available once the
    previous beacon is known) only resolves a contested slot: when a
    different share arrives for an unverified occupant, the occupant is
    checked, and a spoofed occupant is evicted in favour of a verifying
    newcomer (the beacon-share spoofing fix).  An [own] share counts as
    verified: it is stored marked so, and {!verified_beacon_shares} never
    checks it. *)

val verified_beacon_shares :
  t ->
  round:Types.round ->
  verify:(Icc_crypto.Threshold_vuf.signature_share -> bool) ->
  Icc_crypto.Threshold_vuf.signature_share list
(** The round's t+1 lowest-signer shares that pass [verify], in signer
    order, or all valid shares when fewer than t+1 exist.  While the round
    holds fewer than t+1 shares it returns [[]] and verifies nothing.
    Otherwise it walks the signers in order, verifies unverified
    occupants (marking them, so each share is verified at most once),
    evicts failures so their signer slot can be re-filled by a genuine
    retransmission, and stops at the (t+1)-th valid share: shares above
    that cut are never verified. *)

(** {1 Classification queries} *)

val find_block : t -> key -> Block.t option
val authenticator : t -> key -> Icc_crypto.Schnorr.signature option
val is_valid : t -> key -> bool

val is_notarized : t -> key -> bool
(** The root [(0, root_hash)] is always notarized. *)

val is_finalized : t -> key -> bool

val blocks_of_round : t -> Types.round -> Block.t list
val valid_blocks : t -> Types.round -> Block.t list
val notarized_blocks : t -> Types.round -> Block.t list

val notarization_cert : t -> key -> Types.cert option
val finalization_cert : t -> key -> Types.cert option
val notar_share_count : t -> key -> int
val notar_shares : t -> key -> Icc_crypto.Multisig.share list
val final_share_count : t -> key -> int
val final_shares : t -> key -> Icc_crypto.Multisig.share list
val beacon_shares : t -> Types.round -> Icc_crypto.Threshold_vuf.signature_share list
val max_round : t -> Types.round
val quorum : t -> int

(** {1 Resync retransmission} *)

val retransmit_set : t -> round:Types.round -> Message.t list
(** Everything this pool can re-send for [round], as the original wire
    messages, so a lagging peer admits them through the ordinary verified
    path: every held proposal bundle (authenticator + parent certificate),
    notarization / finalization certificates, shares where no certificate
    subsumes them (and the block — hence the proposer the share text needs
    — is held), and the round's beacon shares. *)

val beacon_share_msgs : t -> round:Types.round -> Message.t list
(** Just the round's beacon shares, as wire messages; used to retransmit
    the pipelined shares of the round after a resync window. *)

(** {1 Garbage collection} *)

val stored_blocks : t -> int

val table_sizes : t -> (string * int) list
(** Entry counts of every internal table, for storage-leak regression
    tests. *)

val prune : t -> below:Types.round -> unit
(** Discard all per-round state for rounds below [below] (paper §3.1's
    message-discarding optimisation / PBFT-style checkpointing).  Only call
    with [below <= kmax]: every discarded round must already be finalized.
    Every table is swept, including entries whose block never arrived, and
    subsequent admissions below the horizon are rejected. *)

(** {1 Protocol-step queries} *)

(** A way to finish a round (Fig. 1 alternative (a)). *)
type completion =
  | Already_notarized of Block.t * Types.cert
  | Combinable of Block.t * Icc_crypto.Multisig.share list
      (** A valid, non-notarized block holding a full share set. *)

val round_completion : t -> Types.round -> completion option

(** A way to advance the finalization subprotocol (Fig. 2). *)
type finalization_step =
  | Final_cert of Block.t * Types.cert
  | Final_combinable of Block.t * Icc_crypto.Multisig.share list

val finalization_step : t -> kmax:Types.round -> finalization_step option
(** The smallest finishable round above [kmax]. *)
