(** Blocks of the block-tree (paper §3.4): a round number, the proposer's
    index, the parent's hash, and an application payload.  The special
    root is represented only by {!root_hash}. *)

type t = {
  round : Types.round;
  proposer : Types.party_id;
  parent_hash : Icc_crypto.Sha256.t;
  payload : Types.payload;
  digest : Icc_crypto.Sha256.t;
      (** Memoized hash of the other four fields; filled by {!create}.
          Always construct blocks through {!create} so it stays
          consistent. *)
}

val root_hash : Icc_crypto.Sha256.t
(** Hash standing in for the round-0 root block. *)

val hash : t -> Icc_crypto.Sha256.t
(** Commits to all four fields.  Served from the memoized [digest] field
    unless memoization is disabled. *)

val set_memoization : bool -> unit
(** Toggle digest memoization (on by default).  With it off, {!hash}
    re-encodes and re-hashes on every call — the pre-optimization
    behaviour, kept so the benchmark harness can measure before/after. *)

val memoization_enabled : unit -> bool

val create :
  round:Types.round -> proposer:Types.party_id ->
  parent_hash:Icc_crypto.Sha256.t -> payload:Types.payload -> t
(** Raises [Invalid_argument] for rounds below 1. *)

val wire_size : t -> int
(** Modeled bytes on the wire: header plus declared payload size. *)
