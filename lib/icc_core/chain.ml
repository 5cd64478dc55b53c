(* Walking the block-tree: chains from the root to a block.  A valid block's
   ancestors are always present in the pool (paper §3.4). *)

let parent pool (b : Block.t) =
  Pool.find_block pool (b.Block.round - 1, b.Block.parent_hash)

(* Blocks from round 1 up to [b] inclusive (the root is omitted).
   Raises if an ancestor is missing, which cannot happen for valid blocks. *)
let to_root pool (b : Block.t) =
  let rec go acc (b : Block.t) =
    if b.Block.round = 1 then b :: acc
    else
      match parent pool b with
      | Some p -> go (b :: acc) p
      | None -> invalid_arg "Chain.to_root: missing ancestor"
  in
  go [] b

(* The last [b.round - from_round] blocks of the chain ending at [b]:
   what Fig. 2 outputs when advancing kmax from [from_round]. *)
let segment pool (b : Block.t) ~from_round =
  let rec go acc (b : Block.t) =
    if b.Block.round <= from_round then acc
    else if b.Block.round = 1 then b :: acc
    else
      match parent pool b with
      | Some p -> go (b :: acc) p
      | None -> invalid_arg "Chain.segment: missing ancestor"
  in
  go [] b
