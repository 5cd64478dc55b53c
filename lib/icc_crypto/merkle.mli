(** Merkle trees over SHA-256, authenticating erasure-code fragments in the
    ICC2 reliable-broadcast subprotocol. *)

type proof_step = { sibling : Sha256.t option; left : bool }
type proof = proof_step list

val leaf_hash : string -> Sha256.t
(** [H("leaf|" ^ data)], assembled in module scratch: the 32-byte digest
    is the only allocation. *)

val node_hash : Sha256.t -> Sha256.t -> Sha256.t
(** [H("node|" ^ l ^ r)], likewise allocating only the digest. *)

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
    index must also check it against this; {!admit} checks the same
    shape itself. *)

val proof_wire_size : n_leaves:int -> int
(** Modeled wire size in bytes (32 per tree level). *)

(** {1 Authenticated-node cache}

    The nodes of one tree that paths checked under its root have already
    authenticated, packed into one [Bytes] with a known bit per node.
    {!admit} hashes only up to the first known node, so a receiver that
    checks many paths under one root hashes each node about once. *)

type cache

val cache : n_leaves:int -> root:Sha256.t -> cache
(** A cache for an [n_leaves]-leaf tree that knows only [root].  Raises
    [Invalid_argument] when [n_leaves < 1]. *)

val cache_of_tree : tree -> cache
(** A cache that knows every node of the tree. *)

val admit : cache -> index:int -> leaf:string -> proof -> bool
(** Whether [proof] proves [leaf] at [index] under the cached root: the
    same verdict as [index_of_path] = [Some index] and {!verify} against
    that root, except on a SHA-256 collision.  An accepted path's nodes
    and siblings become known; a rejected one changes nothing. *)

val complete : cache -> held:(int -> bool) -> string array -> bool
(** [complete c ~held leaves] checks that [leaves] (one per leaf) have the
    cached root, with the same verdict as comparing [root (tree leaves)]
    to it except on a SHA-256 collision, and on success makes every node
    known.  A leaf [i] with [held i] is not rehashed when already known:
    the caller vouches that it equals the leaf admitted at [i].  On
    failure the cache is unchanged.  Raises [Invalid_argument] when the
    array length is not the leaf count. *)
