(** Walking the block-tree: chains from the root to a block.  Ancestors of
    valid blocks are always present in the pool (paper §3.4). *)

val parent : Pool.t -> Block.t -> Block.t option

val to_root : Pool.t -> Block.t -> Block.t list
(** Blocks from round 1 to the given block inclusive (root omitted).
    Raises [Invalid_argument] on a missing ancestor. *)

val segment : Pool.t -> Block.t -> from_round:Types.round -> Block.t list
(** The last [round - from_round] blocks of the chain ending at the given
    block — what Fig. 2 outputs when advancing kmax. *)
