(** Shamir secret sharing over the scalar field [Z_q] of {!Group}. *)

type share = {
  index : int;  (** 1-based party index (the evaluation point). *)
  value : Group.scalar;
}

val deal :
  threshold_t:int ->
  n:int ->
  secret:int ->
  (unit -> int) ->
  Group.scalar array * share list
(** [deal ~threshold_t ~n ~secret rand_bits] samples a random degree-
    [threshold_t] polynomial with constant term [secret] and returns the
    coefficient vector together with the [n] shares [f(1) .. f(n)].
    Any [threshold_t + 1] shares reconstruct; [threshold_t] reveal nothing. *)

val lagrange_coeff_at_zero : int list -> int -> Group.scalar
(** [lagrange_coeff_at_zero idxs i] is the Lagrange basis coefficient of
    index [i] for interpolation at 0 over the index set [idxs]. *)

val reconstruct : share list -> Group.scalar
(** Interpolates at 0.  Raises [Invalid_argument] on duplicate indices. *)
