(** Systematic Reed–Solomon erasure coding over GF(2^8): [k]-of-[n]
    reconstruction, [n <= 255]. *)

type coded = {
  k : int;
  n : int;
  fragment_size : int;
  data_size : int;
  fragments : string array;
}

val encode : k:int -> n:int -> string -> coded

val decode :
  k:int -> n:int -> data_size:int -> (int * string) list -> string option
(** [decode ~k ~n ~data_size fragments] reconstructs from any [k] distinct
    [(index, bytes)] pairs (0-based indices); [None] if fewer than [k]
    usable fragments are supplied or the system is inconsistent. *)
