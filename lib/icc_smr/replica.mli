(** Binding atomic broadcast to the state machine: a replica folds a
    committed block chain into a {!Kv_store}, skipping duplicate command
    ids defensively. *)

type t = {
  store : Kv_store.t;
  mutable seen : Set.Make(Int).t;
  mutable blocks_applied : int;
  mutable skipped : int;  (** Commands with undecodable tags. *)
}

val create : unit -> t
val apply_command : t -> Icc_core.Types.command -> unit
val apply_chain : t -> Icc_core.Block.t list -> unit
val state_digest : t -> string

val states_consistent : (int * Icc_core.Block.t list) list -> bool
(** Replay every honest party's chain; states must agree on common
    prefixes. *)
