(* Merkle trees over SHA-256, used to authenticate erasure-code fragments in
   the ICC2 reliable-broadcast subprotocol.

   Leaves and internal nodes use distinct domain separators so a leaf can
   never be reinterpreted as an internal node.  Odd nodes are promoted
   unpaired to the next level (no duplication).

   Authenticated-node cache.  A receiver that checks many paths under one
   signed root need not rehash what an earlier path already tied to it.
   A [cache] holds one 32-byte slot per node of every level and one
   "known" bit per slot.  At creation only the root is known; nodes
   become known only from a path that reached a known node, or from
   [complete]'s fill, which ends at known nodes.  Two invariants follow:
   the known set is closed under parent and under sibling (an admitted
   path marks its siblings too), and every known node whose children are
   known is [node_hash] of them (or equals its promoted child).

   [admit] hashes the leaf and climbs until it reaches a known slot, then
   requires the computed node to equal it and every supplied sibling above
   to equal the known slot at its position.  Its verdict equals
   [index_of_path] = [Some index] plus [verify] on every input except
   a SHA-256 collision:
   - admit accepts => verify accepts, exactly.  Above the meeting slot the
     path's nodes are known, and by the second invariant rehashing them
     with the matching siblings reproduces the known ancestors up to the
     root.
   - verify accepts => admit accepts, unless two distinct hash inputs
     collide.  A path that hashes to the root agrees with the tree under
     it at every level: at a node where it first disagrees, two distinct
     (child, child) inputs would give one digest, and a leaf input can
     never equal a node input, by the domain tags.
   Both check the same shape, so the climb accepts exactly the shapes
   [index_of_path] binds to [index].  A rejected path marks nothing, so a
   forged fragment cannot seed the cache.

   [complete] fills every unknown slot from a full leaf array, bottom up,
   and hashes a known slot only when one of its children is new, to
   compare.  It accepts iff the leaves' own tree has the cached root, by
   the same argument: the filled cache is that tree, and any mismatch at
   a known slot is a mismatch with the root's tree.  On failure it
   restores the known bits, so the cache is as before. *)

type proof_step = { sibling : Sha256.t option; left : bool }
(* [left = true] means the running hash is the left child at this level;
   [sibling = None] records an unpaired promotion. *)

type proof = proof_step list

(* Hash inputs are assembled in module-level scratch.  The runtime is
   single-domain (DESIGN.md §3.9) and nothing hashes while an input is
   being assembled, so a leaf or node digest allocates only its 32-byte
   result.  [leaf_buf] grows to the largest leaf seen. *)
let leaf_buf = ref (Bytes.of_string "leaf|")
let node_buf = Bytes.of_string ("node|" ^ String.make 64 '\000')

let leaf_hash data =
  let len = 5 + String.length data in
  if Bytes.length !leaf_buf < len then begin
    let b = Bytes.create (max len (2 * Bytes.length !leaf_buf)) in
    Bytes.blit_string "leaf|" 0 b 0 5;
    leaf_buf := b
  end;
  Bytes.blit_string data 0 !leaf_buf 5 (String.length data);
  Sha256.digest_subbytes !leaf_buf 0 len

let node_hash (l : Sha256.t) (r : Sha256.t) =
  Bytes.blit_string (l :> string) 0 node_buf 5 32;
  Bytes.blit_string (r :> string) 0 node_buf 37 32;
  Sha256.digest_bytes node_buf

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

(* A step fits position [pos] of a level of [width] nodes when it is left
   iff the position is even, and has a sibling unless it is the unpaired
   last node of its level. *)
let step_fits { sibling; left } pos width =
  width > 1
  && Bool.equal left (pos land 1 = 0)
  && Bool.equal (Option.is_some sibling) ((not left) || pos + 1 < width)

(* The leaf index whose [prove] path has exactly [proof]'s shape, if any.
   Step i's [left] bit is bit i of the index; replaying [prove]'s walk from
   that index then fixes every step's shape and the path ends at the root.
   [verify] alone accepts any path that hashes to the root, so this is what
   binds a proof to one leaf position. *)
let index_of_path ~n_leaves (proof : proof) =
  let index, _ =
    List.fold_left
      (fun (acc, bit) st -> ((if st.left then acc else acc lor bit), bit lsl 1))
      (0, 1) proof
  in
  let rec fits pos width = function
    | [] -> width = 1
    | st :: rest -> step_fits st pos width && fits (pos / 2) ((width + 1) / 2) rest
  in
  if index >= 0 && index < n_leaves && fits index n_leaves proof then
    Some index
  else None

(* Modeled wire size of a proof for an n-leaf tree: 32 bytes per level. *)
let proof_wire_size ~n_leaves =
  let rec levels n acc = if n <= 1 then acc else levels ((n + 1) / 2) (acc + 1) in
  32 * levels n_leaves 0

(* --- the authenticated-node cache ----------------------------------- *)

(* Slot [s]'s digest is at [32 * s] in [nodes], levels in order from the
   leaves (slots [0, leaves)) to the root (slot [slots - 1]); its known bit
   is bit [s land 7] of byte [32 * slots + s lsr 3]. *)
type cache = { leaves : int; slots : int; nodes : Bytes.t }

let slot_count n =
  let rec go width acc =
    if width = 1 then acc + 1 else go ((width + 1) / 2) (acc + width)
  in
  go n 0

let known c s =
  Char.code (Bytes.get c.nodes ((32 * c.slots) + (s lsr 3)))
  land (1 lsl (s land 7))
  <> 0

let set c s (d : Sha256.t) =
  Bytes.blit_string (d :> string) 0 c.nodes (32 * s) 32;
  let b = (32 * c.slots) + (s lsr 3) in
  Bytes.set c.nodes b
    (Char.unsafe_chr (Char.code (Bytes.get c.nodes b) lor (1 lsl (s land 7))))

let equal_at c s (d : Sha256.t) =
  let d = (d :> string) and off = 32 * s in
  let rec go i =
    i = 32
    || Char.equal (Bytes.get c.nodes (off + i)) (String.unsafe_get d i)
       && go (i + 1)
  in
  go 0

let cache ~n_leaves ~root =
  if n_leaves < 1 then invalid_arg "Merkle.cache: empty";
  let slots = slot_count n_leaves in
  let c =
    {
      leaves = n_leaves;
      slots;
      nodes = Bytes.make ((32 * slots) + ((slots + 7) / 8)) '\000';
    }
  in
  set c (slots - 1) root;
  c

let cache_of_tree (t : tree) =
  let c = cache ~n_leaves:(Array.length t.(0)) ~root:(root t) in
  let s = ref 0 in
  Array.iter (Array.iter (fun d -> set c !s d; incr s)) t;
  c

(* Walks the levels as [index_of_path] does: the path sits at [pos] of a
   level of [width] slots starting at slot [base]. *)
let admit c ~index ~leaf (proof : proof) =
  let sibling_slot base pos left = base + if left then pos + 1 else pos - 1 in
  let rec above base pos width = function
    | [] -> width = 1
    | ({ sibling; left } as st) :: rest ->
        step_fits st pos width
        && (match sibling with
           | None -> true
           | Some s -> equal_at c (sibling_slot base pos left) s)
        && above (base + width) (pos / 2) ((width + 1) / 2) rest
  in
  let rec climb h base pos width = function
    | steps when known c (base + pos) ->
        equal_at c (base + pos) h && above base pos width steps
    | [] -> false
    | ({ sibling; left } as st) :: rest ->
        step_fits st pos width
        && climb
             (match sibling with
             | None -> h
             | Some s -> if left then node_hash h s else node_hash s h)
             (base + width) (pos / 2) ((width + 1) / 2) rest
        && begin
             (* the climb above met the cache: mark this level's node and
                its sibling on the way back *)
             set c (base + pos) h;
             Option.iter (set c (sibling_slot base pos left)) sibling;
             true
           end
  in
  index >= 0 && index < c.leaves && climb (leaf_hash leaf) 0 index c.leaves proof

(* [node_hash] of the two slots. *)
let node_hash_slots c l r =
  Bytes.blit c.nodes (32 * l) node_buf 5 32;
  Bytes.blit c.nodes (32 * r) node_buf 37 32;
  Sha256.digest_bytes node_buf

let complete c ~held (leaves : string array) =
  if Array.length leaves <> c.leaves then
    invalid_arg "Merkle.complete: leaf count";
  let bits = 32 * c.slots in
  let before = Bytes.sub c.nodes bits (Bytes.length c.nodes - bits) in
  let was_known s = Char.code (Bytes.get before (s lsr 3)) land (1 lsl (s land 7)) <> 0 in
  (* Fill or check slot [s], whose value is [d]. *)
  let fill s d = if known c s then equal_at c s d else (set c s d; true) in
  let rec leaf i =
    i = c.leaves
    || ((held i && known c i) || fill i (leaf_hash leaves.(i))) && leaf (i + 1)
  in
  (* Level [base, base + width) is filled: fill its parents.  A known
     parent over children that were both known already matches them by
     the cache invariant, so only one with a new child is hashed. *)
  let rec level base width =
    width = 1
    ||
    let up = base + width in
    let rec node p =
      p = (width + 1) / 2
      ||
      let l = base + (2 * p) and s = up + p in
      let paired = (2 * p) + 1 < width in
      ((known c s && was_known l && ((not paired) || was_known (l + 1)))
      || fill s
           (if paired then node_hash_slots c l (l + 1)
            else Sha256.of_raw (Bytes.sub_string c.nodes (32 * l) 32)))
      && node (p + 1)
    in
    node 0 && level up ((width + 1) / 2)
  in
  let ok = leaf 0 && level 0 c.leaves in
  if not ok then Bytes.blit before 0 c.nodes bits (Bytes.length before);
  ok
