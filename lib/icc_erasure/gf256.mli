(** GF(2^8) arithmetic (AES polynomial 0x11b). Values are ints in [\[0,255]]. *)

val check : int -> unit
val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int

val mul_row : int -> string
(** [mul_row c] is the product row of [c]: byte [x] holds [mul c x]. *)

val inv : int -> int
val pow : int -> int -> int
