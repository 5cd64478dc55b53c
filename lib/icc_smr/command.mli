(** Operations of the replicated key-value state machine, encoded into the
    opaque command tags of the atomic-broadcast layer. *)

type op =
  | Set of string * string
  | Delete of string
  | Increment of string
  | Noop

val encode : op -> string
val decode : string -> op option
