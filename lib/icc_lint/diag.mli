(** Lint findings: location, rule id, message; deterministic ordering and
    the text rendering. *)

type t = { file : string; line : int; col : int; rule : string; msg : string }

val rule_poly_compare : string
val rule_hashtbl_order : string
val rule_banned_fn : string
val rule_float_eq : string
val rule_catchall_exn : string
val rule_allow_bad : string
val rule_allow_unused : string

val suppressible_rules : string list
(** The rule ids an [@icc.allow] attribute may name (D1-D4). *)

val is_suppressible : string -> bool

val all_rules : string list
(** Every rule id in a stable order, for per-rule summary counts. *)

val of_location : Location.t -> rule:string -> msg:string -> t

val sort : t list -> t list
(** Sort and de-duplicate by the keyed total order (file, line, col,
    rule, msg). *)

val to_text : t -> string
(** ["file:line:col: [rule] msg"]. *)
