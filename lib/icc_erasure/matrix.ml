(* Dense matrices over GF(2^8), with the Gaussian-elimination inverse used
   by Reed–Solomon decoding. *)

type t = int array array (* row-major *)

let make ~rows ~cols = Array.make_matrix rows cols 0

let identity n =
  let m = make ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    m.(i).(i) <- 1
  done;
  m

let rows m = Array.length m
let cols m = if Array.length m = 0 then 0 else Array.length m.(0)

let copy m = Array.map Array.copy m

(* Vandermonde matrix: entry (i, j) = x_i ^ j.  Any k distinct evaluation
   points give an invertible k x k submatrix, the property erasure decoding
   relies on. *)
let vandermonde ~points ~cols =
  Array.map (fun x -> Array.init cols (fun j -> Gf256.pow x j)) points

let mul a b =
  let n = rows a and k = cols a and p = cols b in
  if rows b <> k then invalid_arg "Matrix.mul: dimension mismatch";
  let c = make ~rows:n ~cols:p in
  for i = 0 to n - 1 do
    for j = 0 to p - 1 do
      let acc = ref 0 in
      for l = 0 to k - 1 do
        acc := Gf256.add !acc (Gf256.mul a.(i).(l) b.(l).(j))
      done;
      c.(i).(j) <- !acc
    done
  done;
  c

exception Singular

(* Gauss–Jordan inversion; raises [Singular] when no inverse exists. *)
let invert m =
  let n = rows m in
  if cols m <> n then invalid_arg "Matrix.invert: not square";
  let a = copy m and inv = identity n in
  for col = 0 to n - 1 do
    (* find pivot *)
    let pivot = ref (-1) in
    (let r = ref col in
     while !pivot < 0 && !r < n do
       if a.(!r).(col) <> 0 then pivot := !r;
       incr r
    done);
    if !pivot < 0 then raise Singular;
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tmp = inv.(col) in
      inv.(col) <- inv.(!pivot);
      inv.(!pivot) <- tmp
    end;
    (* normalise pivot row *)
    let s = Gf256.inv a.(col).(col) in
    for j = 0 to n - 1 do
      a.(col).(j) <- Gf256.mul a.(col).(j) s;
      inv.(col).(j) <- Gf256.mul inv.(col).(j) s
    done;
    (* eliminate the column elsewhere *)
    for r = 0 to n - 1 do
      if r <> col && a.(r).(col) <> 0 then begin
        let factor = a.(r).(col) in
        for j = 0 to n - 1 do
          a.(r).(j) <- Gf256.sub a.(r).(j) (Gf256.mul factor a.(col).(j));
          inv.(r).(j) <- Gf256.sub inv.(r).(j) (Gf256.mul factor inv.(col).(j))
        done
      end
    done
  done;
  inv
