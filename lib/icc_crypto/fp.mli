(** Modular arithmetic on native ints for odd moduli below [2^61].

    All functions expect and return canonical representatives in [\[0, m)],
    except {!reduce} which canonicalises an arbitrary int. *)

val check_modulus : int -> unit
(** Raises [Invalid_argument] if the modulus is even, too small or ≥ 2^61. *)

val reduce : int -> int -> int
(** [reduce a m] is the canonical representative of [a] modulo [m]. *)

val add : int -> int -> int -> int
val sub : int -> int -> int -> int
val neg : int -> int -> int

val mul : int -> int -> int -> int
(** Modular product.  Uses a division-free pseudo-Mersenne fold when
    enabled (the default) and the modulus admits it (2^59 < m <= 2^61 with
    2^61 mod m < 2^16, which covers both protocol moduli); otherwise falls
    back to the reference double-and-add.  Both compute the identical
    canonical result. *)

val mul_generic : int -> int -> int -> int
(** Reference double-and-add product; always available, used by property
    tests to cross-check the fast path. *)

val set_fast_mul : bool -> unit
(** Toggle the fast multiplication path (on by default).  Only affects
    speed, never results; exposed so the benchmark harness can measure
    before/after. *)

val fast_mul_enabled : unit -> bool

val pow : int -> int -> int -> int
(** [pow base e m] is [base^e mod m]; [e] must be non-negative. *)

val inv : int -> int -> int
(** Modular inverse; raises [Invalid_argument] when not invertible. *)

val divide : int -> int -> int -> int
(** [divide a b m = mul a (inv b m) m]. *)
