(* Systematic Reed–Solomon erasure coding over GF(2^8): k data fragments are
   extended to n total fragments, any k of which reconstruct the data.

   Encoding evaluates, per byte position, the degree-(k-1) polynomial that
   interpolates the k data bytes at points 1..k, producing parity at points
   k+1..n.  Fragments are column slices; fragment i (0-based) is the
   evaluation at point i+1.  Decoding inverts the Vandermonde submatrix of
   the k available points.  Both directions work a whole fragment at a
   time: each matrix coefficient c adds c times a source fragment into a
   destination fragment through c's 256-entry product row.

   Limits: n <= 255 (points must be distinct and nonzero in GF(256)). *)

type coded = {
  k : int; (* data fragments needed to reconstruct *)
  n : int; (* total fragments *)
  fragment_size : int;
  data_size : int; (* original byte length, for exact truncation *)
  fragments : string array; (* length n, each fragment_size bytes *)
}

let point_of_index i = i + 1 (* fragment i evaluates the polynomial at i+1 *)

(* The encoding matrix: n rows of a Vandermonde over points 1..n, transformed
   so the first k rows are the identity (systematic form): E = V * V_k^-1.
   It is a pure function of (k, n), so it is built once per pair and
   shared, like [Group.Fixed_base]'s tables; no caller writes to it
   ([Matrix.invert] copies its argument). *)
let matrices : (int * int, Matrix.t) Hashtbl.t = Hashtbl.create 4

let encoding_matrix ~k ~n =
  match Hashtbl.find_opt matrices (k, n) with
  | Some e -> e
  | None ->
      let v =
        Matrix.vandermonde
          ~points:(Array.init n (fun i -> point_of_index i))
          ~cols:k
      in
      let e = Matrix.mul v (Matrix.invert (Array.sub v 0 k)) in
      Hashtbl.add matrices (k, n) e;
      e

(* dst[dst_off + p] ^= c * src[src_off + p] for p < len, reading each
   product from [c]'s 256-entry row. *)
let mul_acc ~c src ~src_off dst ~dst_off ~len =
  if c <> 0 && len > 0 then begin
    if src_off < 0 || src_off + len > String.length src || dst_off < 0
       || dst_off + len > Bytes.length dst
    then invalid_arg "Reed_solomon.mul_acc: range";
    let row = Gf256.mul_row c in
    for p = 0 to len - 1 do
      let x = Char.code (String.unsafe_get src (src_off + p)) in
      let d = Char.code (Bytes.unsafe_get dst (dst_off + p)) in
      Bytes.unsafe_set dst (dst_off + p)
        (Char.unsafe_chr (d lxor Char.code (String.unsafe_get row x)))
    done
  end

let encode ~k ~n (data : string) : coded =
  if not (k >= 1 && k <= n && n <= 255) then
    invalid_arg "Reed_solomon.encode: need 1 <= k <= n <= 255";
  let data_size = String.length data in
  let fragment_size = (data_size + k - 1) / k in
  let fragment_size = max fragment_size 1 in
  let e = encoding_matrix ~k ~n in
  (* Data fragment j is data[j*fragment_size ..], zero-padded; [len j]
     counts its real bytes, the padding contributes nothing. *)
  let len j = max 0 (min fragment_size (data_size - (j * fragment_size))) in
  let fragments =
    Array.init n (fun i ->
        let buf = Bytes.make fragment_size '\000' in
        (* E's top k rows are the identity: fragment i < k is a copy. *)
        if i < k then begin
          if len i > 0 then
            Bytes.blit_string data (i * fragment_size) buf 0 (len i)
        end
        else
          for j = 0 to k - 1 do
            mul_acc ~c:e.(i).(j) data ~src_off:(j * fragment_size) buf
              ~dst_off:0 ~len:(len j)
          done;
        Bytes.unsafe_to_string buf)
  in
  { k; n; fragment_size; data_size; fragments }

(* Reconstruct from any >= k of the n fragments, given as (index, bytes)
   pairs with 0-based indices.  Returns [None] on malformed input. *)
let decode ~k ~n ~data_size (available : (int * string) list) : string option =
  let available = List.sort_uniq (fun (i, _) (j, _) -> compare i j) available in
  let fragment_size = max ((data_size + k - 1) / k) 1 in
  let usable =
    List.filter
      (fun (i, frag) ->
        i >= 0 && i < n && String.length frag = fragment_size)
      available
  in
  if List.length usable < k then None
  else
    let chosen = List.filteri (fun idx _ -> idx < k) usable in
    let e = encoding_matrix ~k ~n in
    let rows = Array.of_list (List.map (fun (i, _) -> e.(i)) chosen) in
    let frags = Array.of_list (List.map snd chosen) in
    match Matrix.invert rows with
    | exception Matrix.Singular -> None
    | inv ->
        (* Data fragment j = sum over r of inv(j, r) * chosen fragment r. *)
        let out = Bytes.make (fragment_size * k) '\000' in
        for j = 0 to k - 1 do
          for r = 0 to k - 1 do
            mul_acc ~c:inv.(j).(r) frags.(r) ~src_off:0 out
              ~dst_off:(j * fragment_size) ~len:fragment_size
          done
        done;
        Some (Bytes.sub_string out 0 data_size)
