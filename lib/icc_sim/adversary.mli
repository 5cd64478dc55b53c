(** Composable, deterministic Byzantine adversary strategies.

    Where the {!Fault} nemesis attacks the *network* (drops, duplicates,
    partitions), an adversary corrupts *parties*: it interposes on a
    corrupt party's sends and internal protocol steps.  A {!script} is a
    list of {!directive}s, each pairing a target (one named party, or
    "any party" for adaptive corruption up to a budget), an activation
    trigger (always / from a round / when the party's beacon rank matches)
    and an {!action} — equivocation, share withholding, per-peer
    censorship, stealthy-leader delay, crash windows, or Losa–Gafni
    unknown-participation straggling.

    Two interposition surfaces consume one instance:

    - the protocol layer ({!Icc_core.Party}) asks {!note_round} /
      {!equivocation} / {!withholds} / {!crashed_now} to drive corrupt
      behavior from inside the party (conflicting proposals, suppressed
      shares, crash windows);
    - the network ({!Network}) asks {!on_send} for every remote
      transmission, which applies censorship, straggling, delay and —
      when a [classify] function maps message kinds to share classes —
      network-level withholding for the baseline protocols that have no
      party hooks.

    Determinism mirrors {!Fault}: the instance owns a private {!Rng}
    stream, draws happen unconditionally for every matching rule in
    script order, and nothing depends on who is subscribed to the bus, so
    one seed + script reproduces the same attack byte-for-byte.  Every
    adversary decision is announced as a round-trippable [adv-*] trace
    event ([Adv_corrupt] and [Adv_equivocate] at core level; the
    per-message ones at detail level). *)

(** The three share kinds a corrupt party can suppress. *)
type share_class = Beacon | Notar | Final

type action =
  | Equivocate of { noisy : bool }
      (** As proposer, send conflicting proposals to disjoint halves of
          the network; with [noisy], also notarization-share every valid
          block seen (and finalization-share promiscuously), maximising
          the chance a conflicting block gathers a certificate. *)
  | Withhold of { beacon : bool; notar : bool; final : bool; p : float }
      (** Suppress own shares of the flagged classes, each round
          independently with probability [p] ([p = 1.] = always). *)
  | Censor of { dsts : int list }
      (** Silently drop every message to the listed peers. *)
  | Delay of { by : float }
      (** Stealthy leader: hold every outgoing message back [by] seconds
          (just under the timeout keeps the party in the protocol while
          slowing every round it leads). *)
  | Crash_window
      (** Behave as crashed inside the directive's time window (send and
          process nothing), resuming afterwards — the crash-vs-Byzantine
          hybrid. *)
  | Straggle of { p : float }
      (** Drop each outgoing copy independently with probability [p]:
          the unknown-participation message adversary (Losa–Gafni). *)

type target =
  | Party of int  (** One statically corrupt party. *)
  | Any
      (** Adaptive: any party satisfying the trigger may be corrupted,
          up to the directive's [max_corrupt] budget. *)

type trigger =
  | Always
  | On_round of int  (** Activates when the party enters round >= r. *)
  | On_rank of int
      (** Activates when the party's beacon rank for an entered round
          equals the given rank (0 = leader) — "corrupt the leader". *)

type directive = {
  who : target;
  from_ : float;
  until : float;  (** The action applies during [[from_, until)]. *)
  trigger : trigger;
  action : action;
  max_corrupt : int;
      (** Distinct parties this directive may corrupt ([max_int] for
          statically targeted ones). *)
}

type script = directive list

(** {1 Script constructors} *)

val equivocate : ?noisy:bool -> ?from_:float -> ?until:float -> int -> directive

val withhold :
  ?beacon:bool -> ?notar:bool -> ?final:bool -> ?p:float -> ?from_:float ->
  ?until:float -> int -> directive
(** Flags default to withholding all three share classes, [p] to [1.]. *)

val censor : dsts:int list -> ?from_:float -> ?until:float -> int -> directive
val delay : by:float -> ?from_:float -> ?until:float -> int -> directive
val crash_window : from_:float -> until:float -> int -> directive
val straggle : p:float -> ?from_:float -> ?until:float -> int -> directive

val adaptive :
  ?from_:float -> ?until:float -> ?on_round:int -> ?rank:int ->
  max_corrupt:int -> action -> directive
(** An [Any]-targeted directive; [rank] wins over [on_round] when both are
    given, no predicate means [Always]. *)

(** {1 Static script analysis} — used by the runner before the run. *)

val static_corrupt : script -> int list
(** Parties named by a [Party _] target, ascending and deduplicated: the
    statically corrupt set, excluded from honest-commit accounting. *)

val static_crash_wakes : script -> (float * int) list
(** [(until, party)] for statically targeted crash windows with a finite
    end, sorted by time: the runner schedules a wake-up step for the party
    at each window end. *)

(** {1 Instance} *)

type t

val create :
  rng:Rng.t -> trace:Trace.t -> n:int ->
  ?classify:(string -> share_class option) -> script -> t
(** One adversary for one run.  [rng] must be a dedicated stream (a
    {!Rng.split} of the scenario RNG, taken only when a non-empty script
    is configured, so runs without an adversary keep their historical
    streams).  [classify] maps wire message kinds to share classes and
    enables network-level withholding — the baseline harness passes it;
    the ICC stack leaves it [None] because parties withhold at the
    protocol layer. *)

val script : t -> script

val strategy_name : action -> string
(** The action's name as traces report it, e.g. ["censor"] or
    ["equivocate-noisy"]. *)

val note_round : t -> now:float -> party:int -> round:int -> rank:int -> unit
(** Evaluate activation triggers for [party] entering [round] with beacon
    rank [rank].  First activation of a (directive, party) pair announces
    [Adv_corrupt] and counts against the directive's budget.  Must be
    called once per round entry, before any same-round query. *)

val equivocation : t -> now:float -> party:int -> bool option
(** [Some noisy] when an active equivocation directive applies. *)

val withholds :
  t -> now:float -> party:int -> round:int -> share_class -> bool
(** Draw the round's withholding decision for one share class.  Call once
    per (party, round, class) — the draw is part of the deterministic
    stream.  Announces [Adv_withhold] when true. *)

val crashed_now : t -> now:float -> party:int -> bool
(** An active crash window covers [now] (pure; no draws). *)

type send_verdict = {
  av_drop : bool;  (** Suppress the transmission entirely. *)
  av_delay : float;  (** Extra seconds added before the network delay. *)
}

val on_send : t -> now:float -> src:int -> dst:int -> kind:string -> send_verdict
(** Network-level interposition, called once per remote transmission in
    transmission order (draws are stream-positional).  Applies censor /
    straggle / delay / crash-window directives active for [src], plus
    withholding via [classify] when configured. *)

val corrupted : t -> int list
(** Every party corrupted so far (static and adaptively activated),
    ascending — the runner subtracts these from the honest set. *)

(** {1 Script files} *)

val script_of_json : string -> (script, string) result
(** Parse a JSON script: an array of objects selected by their
    ["adversary"] field.  Directives name a ["party"] or are adaptive
    (["rank"] / ["on_round"] plus ["max"]); times default to the whole
    run.
    {v
    [
      {"adversary":"equivocate","party":3,"noisy":true},
      {"adversary":"withhold","party":2,"notar":true,"p":0.5},
      {"adversary":"censor","party":2,"dsts":[1,4]},
      {"adversary":"delay","party":1,"by":0.4,"from":10,"until":20},
      {"adversary":"crash","party":2,"from":5,"until":10},
      {"adversary":"straggle","party":4,"p":0.3},
      {"adversary":"equivocate","rank":0,"max":2}
    ]
    v} *)
