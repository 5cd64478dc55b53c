(** Linter orchestration: artifact discovery, the passes, reporting. *)

type config = {
  paths : string list;  (** linted (and contributing type info) *)
  dep_paths : string list;  (** type info only *)
  protocol_modules : string list;
}

val default_protocol_modules : string list

val default : ?dep_paths:string list -> string list -> config

type result = { findings : Diag.t list; errors : string list; modules : int }

val collect : config -> result
(** Run the D1-D4 rules over every linted module; findings arrive sorted
    and de-duplicated. *)

val run : config -> int
(** [collect] + print findings (stdout) and summary (stderr).  Returns
    the intended exit code: 0 clean, 1 findings, 2 unreadable
    artifacts. *)

val config_of_args : string list -> (config, string) Result.t
(** Parse [--deps DIR]... [PATH]... *)
