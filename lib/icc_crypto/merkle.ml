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

let root_of_leaves (leaves : string list) : Sha256.t =
  if leaves = [] then invalid_arg "Merkle.root_of_leaves: empty";
  let rec up = function
    | [ h ] -> h
    | level ->
        let rec pair = function
          | l :: r :: rest -> node_hash l r :: pair rest
          | [ odd ] -> [ odd ]
          | [] -> []
        in
        up (pair level)
  in
  up (List.map leaf_hash leaves)

let prove (leaves : string list) (index : int) : proof =
  let n = List.length leaves in
  if index < 0 || index >= n then invalid_arg "Merkle.prove: index out of range";
  let rec up level pos acc =
    match level with
    | [ _ ] -> List.rev acc
    | _ ->
        let arr = Array.of_list level in
        let len = Array.length arr in
        let step =
          if pos land 1 = 0 then
            if pos + 1 < len then { sibling = Some arr.(pos + 1); left = true }
            else { sibling = None; left = true }
          else { sibling = Some arr.(pos - 1); left = false }
        in
        let rec pair = function
          | l :: r :: rest -> node_hash l r :: pair rest
          | [ odd ] -> [ odd ]
          | [] -> []
        in
        up (pair level) (pos / 2) (step :: acc)
  in
  up (List.map leaf_hash leaves) index []

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
