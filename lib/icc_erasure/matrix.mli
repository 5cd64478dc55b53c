(** Dense matrices over GF(2^8). *)

type t = int array array

val make : rows:int -> cols:int -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val copy : t -> t

val vandermonde : points:int array -> cols:int -> t
(** Row [i] is [[x_i^0; x_i^1; ...]]; any [cols] rows with distinct points
    form an invertible square matrix. *)

val mul : t -> t -> t

exception Singular

val invert : t -> t
(** Gauss–Jordan inverse; raises {!Singular} when the matrix has none. *)
