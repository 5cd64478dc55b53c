(** Cross-module type knowledge: a declaration table built from the
    build's [.cmti] / [.cmt] files, and the hazard classifiers the rules
    use to decide whether a polymorphic primitive instantiation is
    deterministic. *)

type decl =
  | Alias of Types.type_expr
  | Record
  | Variant_enum
  | Variant_payload
  | Abstract
  | Open

type table
(** Declaration table keyed by ["Module.type"]. *)

val norm_component : string -> string
(** ["Icc_core__Types"] -> ["Types"]; unwrapped names pass through. *)

val norm_path : Path.t -> string
(** Fully normalized dotted name, e.g. ["Stdlib.compare"]. *)

val path_components : Path.t -> string list

val type_key : Path.t -> string
(** ["Module.type"] table key ("Types.party_id"); bare idents keep just
    the type name and never match the table. *)

val module_of_key : string -> string

val create : unit -> table

val add_cmt : table -> Cmt_format.cmt_infos -> unit
(** Record all top-level type declarations.  Interface entries overwrite
    implementation entries (the [.mli] view is authoritative). *)

type verdict = Safe | Hazard of string

val order_hazard :
  table:table ->
  protocol:(string -> bool) ->
  float_ok:bool ->
  fuel:int ->
  Types.type_expr ->
  verdict
(** Is instantiating an order-sensitive polymorphic primitive ([compare],
    [min], [<], [Hashtbl.hash], ...) at this type a determinism hazard? *)

val equality_hazard :
  table:table -> protocol:(string -> bool) -> fuel:int -> Types.type_expr -> verdict
(** Same question for structural equality ([=], [List.mem], ...). *)

val is_float : table:table -> Types.type_expr -> bool
