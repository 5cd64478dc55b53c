(* Merkle trees over SHA-256, used to authenticate erasure-code fragments in
   the ICC2 reliable-broadcast subprotocol.

   Leaves and internal nodes use distinct domain separators so a leaf can
   never be reinterpreted as an internal node.  Odd nodes are promoted
   unpaired to the next level (no duplication). *)

type proof_step = { sibling : Sha256.t option; left : bool }
(* [left = true] means the running hash is the left child at this level;
   [sibling = None] records an unpaired promotion. *)

type proof = proof_step list

let leaf_hash data = Sha256.digest_string ("leaf|" ^ data)

let node_hash l r =
  Sha256.digest_string ("node|" ^ (l : Sha256.t :> string) ^ (r : Sha256.t :> string))

(* Level 0 holds the leaf hashes, each next level the pairwise node hashes
   of the one below (an odd last node promoted as is), the last level the
   root alone. *)
type tree = Sha256.t array array

let tree (leaves : string array) : tree =
  if Array.length leaves = 0 then invalid_arg "Merkle.tree: empty";
  let rec up acc level =
    let len = Array.length level in
    if len = 1 then Array.of_list (List.rev (level :: acc))
    else
      up (level :: acc)
        (Array.init ((len + 1) / 2) (fun j ->
             if (2 * j) + 1 < len then node_hash level.(2 * j) level.((2 * j) + 1)
             else level.(2 * j)))
  in
  up [] (Array.map leaf_hash leaves)

let root (t : tree) = t.(Array.length t - 1).(0)

(* Reads one sibling per level: at level [l] the path sits at
   [index lsr l]. *)
let proof (t : tree) index : proof =
  if index < 0 || index >= Array.length t.(0) then
    invalid_arg "Merkle.proof: index out of range";
  List.init (Array.length t - 1) (fun l ->
      let level = t.(l) and pos = index lsr l in
      if pos land 1 = 1 then { sibling = Some level.(pos - 1); left = false }
      else if pos + 1 < Array.length level then
        { sibling = Some level.(pos + 1); left = true }
      else { sibling = None; left = true })

let root_of_leaves (leaves : string list) : Sha256.t =
  if leaves = [] then invalid_arg "Merkle.root_of_leaves: empty";
  root (tree (Array.of_list leaves))

let prove (leaves : string list) (index : int) : proof =
  if index < 0 || index >= List.length leaves then
    invalid_arg "Merkle.prove: index out of range";
  proof (tree (Array.of_list leaves)) index

let verify ~root ~leaf (proof : proof) : bool =
  let final =
    List.fold_left
      (fun h { sibling; left } ->
        match (sibling, left) with
        | Some s, true -> node_hash h s
        | Some s, false -> node_hash s h
        | None, _ -> h)
      (leaf_hash leaf) proof
  in
  Sha256.equal final root

(* The leaf index whose [prove] path has exactly [proof]'s shape, if any.
   Step i's [left] bit is bit i of the index; replaying [prove]'s walk from
   that index then fixes every step's shape: left iff the position is even,
   no sibling iff it is the unpaired last node of its level, and the path
   ends at the root.  [verify] alone accepts any path that hashes to the
   root, so this is what binds a proof to one leaf position. *)
let index_of_path ~n_leaves (proof : proof) =
  let index, _ =
    List.fold_left
      (fun (acc, bit) st -> ((if st.left then acc else acc lor bit), bit lsl 1))
      (0, 1) proof
  in
  let rec fits pos width = function
    | [] -> width = 1
    | { sibling; left } :: rest ->
        width > 1
        && Bool.equal left (pos land 1 = 0)
        && Bool.equal (Option.is_some sibling) ((not left) || pos + 1 < width)
        && fits (pos / 2) ((width + 1) / 2) rest
  in
  if index >= 0 && index < n_leaves && fits index n_leaves proof then
    Some index
  else None

(* Modeled wire size of a proof for an n-leaf tree: 32 bytes per level. *)
let proof_wire_size ~n_leaves =
  let rec levels n acc = if n <= 1 then acc else levels ((n + 1) / 2) (acc + 1) in
  32 * levels n_leaves 0
