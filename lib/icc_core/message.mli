(** Wire messages of ICC0/ICC1 and their modeled sizes.

    A {!Proposal} bundles block + authenticator + parent notarization —
    exactly what Fig. 1 broadcasts when proposing or echoing.  Sizes are
    modeled at production scale (48-byte signatures, 32-byte hashes),
    independent of the in-memory representation. *)

type proposal = {
  p_block : Block.t;
  p_authenticator : Icc_crypto.Schnorr.signature;
  p_parent_cert : Types.cert option;  (** [None] iff round 1 (root parent). *)
}

type t =
  | Proposal of proposal
  | Notarization_share of Types.share_msg
  | Notarization of Types.cert
  | Finalization_share of Types.share_msg
  | Finalization of Types.cert
  | Beacon_share of {
      b_round : Types.round;
      b_signer : Types.party_id;
      b_share : Icc_crypto.Threshold_vuf.signature_share;
    }
  | Pool_summary of {
      ps_party : Types.party_id;
      ps_round : Types.round;
      ps_kmax : Types.round;
    }
      (** Resync sub-layer: a party's periodic frontier announcement
          (current round and finalization cursor), unicast to one rotating
          peer.  Unsigned — it only triggers retransmission of messages
          that are themselves verified on admission. *)
  | Pool_request of {
      pr_party : Types.party_id;
      pr_from : Types.round;
      pr_upto : Types.round;
    }
      (** Resync sub-layer: an explicit pull for the artifacts of rounds
          [\[pr_from, pr_upto\]], sent to a peer whose summary announced a
          higher frontier. *)

val wire_size : n:int -> t -> int
(** Modeled size in bytes for traffic accounting. *)

val kind : t -> string
(** Short label for per-kind metrics. *)

val is_resync : t -> bool
(** Resync control messages bypass gossip flooding and RBC dissemination:
    they are point-to-point and intentionally repeatable, so they must not
    enter any artifact dedup table. *)
