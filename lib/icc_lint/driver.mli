(** Linter orchestration: artifact discovery, the passes, reporting. *)

type config = {
  paths : string list;  (** linted (and contributing type info) *)
  dep_paths : string list;  (** type info only *)
  protocol_modules : string list;
}

val run : config -> int
(** Run the D1-D4 rules over every linted module, then print the findings
    (sorted and de-duplicated, on stdout) and a summary (stderr).  Returns
    the intended exit code: 0 clean, 1 findings, 2 unreadable
    artifacts. *)

val config_of_args : string list -> (config, string) Result.t
(** Parse [--deps DIR]... [PATH]... *)
