(** Deterministic fault injection — a Jepsen-style "nemesis" for the
    simulated network.

    A {!script} is a list of timed directives: probabilistic per-link rules
    (drop, duplicate, reorder, flap) plus healing partitions and crash /
    recover directives for whole parties.  {!Network} consults
    {!on_transmit} for every remote transmission; the verdict says how many
    copies to deliver, with what extra delay, and until when the link is
    administratively down.  Every injected fault is announced on the
    {!Trace} bus as a [fault-*] event (detail level for per-message faults,
    core level for crash/recover), so the {!Monitor} and the offline
    analyzer see exactly what the nemesis did.

    Determinism: a fault instance owns a private {!Rng} stream and draws in
    transmission order, which is itself deterministic, so the same seed and
    script reproduce the same faults byte-for-byte — and the delay-model's
    own RNG stream is never touched, so enabling tracing or monitoring does
    not shift any fault decision. *)

(** A probabilistic per-link rule, evaluated per transmission. *)
type action =
  | Drop of { p : float }  (** Lose the message with probability [p]. *)
  | Duplicate of { p : float; spread : float }
      (** With probability [p], deliver one extra copy, the duplicate
          delayed by an additional U[0, [spread]] seconds. *)
  | Reorder of { p : float; max_extra : float }
      (** With probability [p], delay the delivery by U[0, [max_extra]]
          extra seconds — enough to overtake later sends (a burst
          reorder). *)
  | Flap of { period : float; up : float }
      (** Deterministic link flapping: within each [period], the link is up
          for the first [up] fraction and down for the rest; messages sent
          while down are held until the next up-phase. *)

type directive =
  | Rule of {
      from_ : float;
      until : float;
      src : int option;  (** [None] = any sender. *)
      dst : int option;  (** [None] = any receiver. *)
      action : action;
    }  (** [action] applies to matching transmissions in [[from_, until)]. *)
  | Partition of { from_ : float; until : float; groups : int list list }
      (** Parties in different groups cannot exchange messages during
          [[from_, until)]; messages are held and released at [until] (a
          healing partition).  Unlisted parties reach everyone. *)
  | Crash of { party : int; at : float }
      (** Crash [party] at time [at]: it sends and processes nothing.  Its
          pool survives (persistent storage); a later {!Recover} directive
          brings it back. *)
  | Recover of { party : int; at : float }
      (** Restart a crashed [party]: it rejoins with its pre-crash pool and
          catches up via the resync sub-layer. *)

type script = directive list

(** {1 Script constructors} *)

val drop :
  ?from_:float -> ?until:float -> ?src:int -> ?dst:int -> float -> directive

val duplicate :
  ?from_:float -> ?until:float -> ?src:int -> ?dst:int -> ?spread:float ->
  float -> directive

val reorder :
  ?from_:float -> ?until:float -> ?src:int -> ?dst:int -> ?max_extra:float ->
  float -> directive

val flap :
  ?from_:float -> ?until:float -> ?src:int -> ?dst:int -> period:float ->
  ?up:float -> unit -> directive

val partition : from_:float -> until:float -> int list list -> directive

val crash_recover : party:int -> down:float -> up:float -> script
(** [[Crash {party; at = down}; Recover {party; at = up}]]. *)

(** {1 The interposition hook} *)

type t

val create : rng:Rng.t -> trace:Trace.t -> script -> t
(** One nemesis instance for one run.  [rng] must be a dedicated stream
    (e.g. {!Rng.split} of the scenario RNG). *)

val script : t -> script

type verdict = {
  deliveries : float list;
      (** One element per copy to deliver, each the extra delay added on
          top of the sampled network delay; [[]] means dropped.  A fault-
          free transmission is [[0.]]. *)
  release_floor : float;
      (** Absolute time before which the link is administratively down
          (flap or partition); [neg_infinity] when open. *)
}

val on_transmit : t -> now:float -> src:int -> dst:int -> kind:string -> verdict
(** Evaluate every matching directive for one transmission, draw the
    probabilistic outcomes, announce the injected faults on the trace bus,
    and return the verdict.  Must be called exactly once per remote
    transmission, in transmission order. *)

(** {1 Crash/recover extraction} — scheduled by the runner, not the network. *)

val crash_schedule : script -> (float * [ `Crash | `Recover ] * int) list
(** Crash/recover directives as [(time, what, party)], sorted by time. *)

val finally_down : script -> int list
(** Parties whose last crash/recover directive is a crash: down at the end
    of the run, hence excluded from the honest commit quorum. *)

(** {1 Script files} *)

(** The generic JSON tree the repository benchmark's spec loader reads
    BENCHMARK.json with: {!Icc_obs.Json.t} with every number as a float. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Script_error of string
(** A malformed script directive. *)

val parse_json : string -> json
(** {!Icc_obs.Json.parse} viewed as a {!json}; raises {!Script_error}
    with the parser's byte offset on malformed input. *)

(** {2 Script reading, shared with {!Adversary}} *)

val directives_of_json :
  ((string * Icc_obs.Json.t) list -> 'd) -> string -> ('d list, string) result
(** [directives_of_json directive text] reads a script file: a top-level
    JSON array of objects, each mapped by [directive], which reports a
    bad field by raising {!Script_error}. *)

val num : (string * Icc_obs.Json.t) list -> ?default:float -> string -> float
(** The number field [name] of a directive object, or [default] when
    absent; raises {!Script_error} when it is missing without a default or
    is not a number. *)

val integer : string -> Icc_obs.Json.t -> int
(** An integral JSON number ([2] or [2.0], not [2.7]) as an id, rank or
    budget; raises {!Script_error} naming field [name] otherwise. *)

val script_of_json : string -> (script, string) result
(** Parse a JSON script: an array of objects selected by their ["fault"]
    field — [{"fault":"drop","p":0.2,"from":0,"until":30,"src":1,"dst":2}],
    ["dup"] ([p], optional [spread]), ["reorder"] ([p], optional
    [max_extra]), ["flap"] ([period], optional [up]), ["partition"]
    ([from], [until], [groups] as an array of id arrays), ["crash"] /
    ["recover"] ([party], [at]).  Times default to the whole run, link
    filters to any. *)
