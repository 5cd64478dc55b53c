(** The one JSON codec: trace lines, nemesis and adversary scripts,
    [icc profile --json] and [bench perf]'s ledger all go through it.

    A value keeps the int/float distinction of its lexeme: [3] reads as
    [Int 3] and [3.0] as [Float 3.], so a trace round-trips
    constructor-exactly.  The writer is compact (no whitespace) and has a
    single float format, six decimals ([%.6f]); a non-finite float is
    written as [null].  Strings are written byte for byte except that
    the double quote, the backslash, newline and every other control
    character are escaped.
    Reading accepts any JSON whitespace and the standard escapes, with
    [\\uXXXX] limited to byte values (at most [00ff]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON text.  An integer lexeme too large for [int]
    reads as a [Float].  [Error] carries a message ending in
    ["at byte N"], the offset where parsing stopped. *)

val to_string : t -> string
(** The compact rendering; [parse (to_string v) = Ok v] for every [v]
    whose floats are finite and exact at six decimals. *)

val member : string -> t -> t option
(** [member k (Object kv)] is the first value bound to [k]; [None] for a
    missing key or a non-object. *)

val number : t -> float option
(** The value of an [Int] or [Float]; [None] otherwise. *)
