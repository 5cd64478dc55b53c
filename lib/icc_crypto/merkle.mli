(** Merkle trees over SHA-256, authenticating erasure-code fragments in the
    ICC2 reliable-broadcast subprotocol. *)

type proof_step = { sibling : Sha256.t option; left : bool }
type proof = proof_step list

val leaf_hash : string -> Sha256.t

type tree
(** Every level of a Merkle tree, leaf hashes first, root last. *)

val tree : string array -> tree
(** Hashes the leaves and every internal node once.  Raises
    [Invalid_argument] on an empty array. *)

val root : tree -> Sha256.t

val proof : tree -> int -> proof
(** [proof t index] is the inclusion proof for leaf [index], read off the
    stored levels without hashing.  Raises [Invalid_argument] on an
    out-of-range index. *)

val root_of_leaves : string list -> Sha256.t
(** [root (tree leaves)]. *)

val prove : string list -> int -> proof
(** [proof (tree leaves) index]: builds the whole tree for one proof. *)

val verify : root:Sha256.t -> leaf:string -> proof -> bool

val index_of_path : n_leaves:int -> proof -> int option
(** The leaf index [i] such that [prove] over [n_leaves] leaves at [i]
    yields a proof of exactly this shape (step directions, sibling
    presence, length); [None] when no index does.  {!verify} checks only
    that the path hashes to the root, so a caller that trusts a claimed
    index must also check it against this. *)

val proof_wire_size : n_leaves:int -> int
(** Modeled wire size in bytes (32 per tree level). *)
