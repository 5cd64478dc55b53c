(** A party's view of the random-beacon chain (paper §2.3, §3.2): R_0 is a
    fixed genesis value, R_k the unique threshold signature on a text
    binding k and R_{k-1}.  R_k seeds the round-k rank permutation; by
    uniqueness every party derives the same permutation. *)

type t

val create : Icc_crypto.Keygen.system -> Icc_crypto.Threshold_vuf.secret_share -> t

val known : t -> Types.round -> bool
(** Round 0 is always known. *)

val message_for_round : t -> Types.round -> string option
(** The text signed for round [k]; [None] while R_{k-1} is unknown. *)

val my_share : t -> Types.round -> Icc_crypto.Threshold_vuf.signature_share option
(** This party's beacon share for a round, when computable. *)

val share_verifier :
  t ->
  Types.round ->
  (Icc_crypto.Threshold_vuf.signature_share -> bool) option
(** The share verifier for a round, once R_{round-1} is known; [None] for
    out-of-range rounds or while the previous beacon is unknown.  Passed to
    [Pool.add_beacon_share], which uses it only to decide between two
    different shares contesting one signer slot. *)

val try_compute : t -> Pool.t -> Types.round -> bool
(** Attempt to combine the round's beacon from the pool's shares.  Only
    the t+1 lowest-signer valid shares are verified, each at most once;
    shares that fail are evicted from the pool so their signer slot can be
    re-filled.  Returns whether the beacon for the round is (now) known. *)

val permutation : t -> Types.round -> int array option
(** [rank -> party] map; index 0 is the leader. *)

val rank_of : t -> Types.round -> Types.party_id -> Types.rank option
val leader : t -> Types.round -> Types.party_id option

val permutation_of_randomness : n:int -> Icc_crypto.Sha256.t -> int array
(** Exposed for testing: the Fisher–Yates permutation seeded by a beacon
    output. *)
