(** Structured trace bus: one typed, replayable event stream shared by the
    engine, the network, the gossip and RBC sub-layers, the protocol layer
    and the baselines.

    {!Metrics.attach} subscribes at the [core] level (traffic accounting and
    per-round milestones); external observers — the [--trace] JSONL dump,
    the bench timeline, the online {!Monitor} — subscribe to everything.
    Detail events are only constructed when {!detailed} is true, so an
    unobserved run pays nothing for them, and sinks never influence
    scheduling, so traced and untraced runs of the same seed are
    byte-identical.

    The JSONL schema is bidirectional: {!to_json} serialises one event per
    line and {!of_json} parses it back, round-tripping every constructor
    (property-tested in test/test_trace.ml).  Both go through
    {!Icc_obs.Json}, so times and float payloads are written with six
    decimals and a non-finite one as [null]. *)

type event =
  | Run_start of { n : int; label : string }
  | Run_end of { label : string }
  | Engine_dispatch of { seq : int }  (** One handled simulation event. *)
  | Net_send of { src : int; dst : int; kind : string; size : int; copies : int }
      (** [dst = 0] means broadcast ([copies] unicast transmissions). *)
  | Net_deliver of { src : int; dst : int; kind : string; size : int }
  | Net_hold of { src : int; dst : int; kind : string; release : float }
      (** Message caught by an asynchronous interval or partition. *)
  | Gossip_publish of { party : int; artifact : string }
  | Gossip_request of { party : int; peer : int; artifact : string }
  | Gossip_acquire of { party : int; peer : int; artifact : string }
  | Rbc_fragment of { party : int; round : int; proposer : int; index : int }
  | Rbc_echo of { party : int; round : int; proposer : int }
  | Rbc_reconstruct of { party : int; round : int; proposer : int }
  | Rbc_inconsistent of { party : int; round : int; proposer : int }
  | Round_entry of { party : int; round : int }
  | Propose of { party : int; round : int }
  | Notarize of { party : int; round : int; block : string }
      (** A party assembled a notarization certificate for [block] (short
          hex digest). *)
  | Finalize of { party : int; round : int; block : string }
      (** A party assembled a finalization certificate. *)
  | Beacon_share of { party : int; round : int }
  | Commit of { party : int; round : int; block : string }
      (** One party appended [block] to its committed chain. *)
  | Block_decided of { round : int; block : string }
      (** Every honest party committed the round's block. *)
  | Protocol_error of { party : int; round : int; what : string }
      (** A party hit a should-be-impossible protocol-layer condition (e.g.
          a certificate combine failing over admission-verified shares) and
          skipped the step instead of aborting the run; the {!Monitor}
          records it as a non-fatal violation. *)
  | Monitor_violation of { round : int; what : string; detail : string }
      (** {!Monitor} caught an invariant violation or Byzantine evidence. *)
  | Monitor_stall of { round : int; stage : string; waited : float }
      (** {!Monitor}'s liveness watchdog: [stage] of [round] has made no
          progress for [waited] simulated seconds. *)
  | Monitor_clear of { round : int; stage : string; waited : float }
      (** A previously flagged stall recovered after [waited] seconds. *)
  | Fault_drop of { src : int; dst : int; kind : string }
      (** {!Fault} nemesis dropped a transmission. *)
  | Fault_duplicate of { src : int; dst : int; kind : string; copies : int }
      (** Nemesis delivered [copies] total copies ([copies >= 2]). *)
  | Fault_reorder of { src : int; dst : int; kind : string; extra : float }
      (** Nemesis delayed a delivery by [extra] seconds out of order. *)
  | Fault_link_down of { src : int; dst : int; kind : string; release : float }
      (** Nemesis link flap or partition: held until [release]. *)
  | Fault_crash of { party : int }
      (** Nemesis crash directive took a party down mid-run. *)
  | Fault_recover of { party : int }
      (** A crashed party rejoined (it resyncs its pool from peers). *)
  | Adv_corrupt of { party : int; round : int; strategy : string }
      (** {!Adversary} directive became active for [party] at [round]
          (adaptive corruptions announce here the first time they fire). *)
  | Adv_equivocate of {
      party : int;
      round : int;
      block_a : string;
      block_b : string;
    }
      (** A corrupt proposer sent conflicting proposals (short hex digests)
          to disjoint halves of the network. *)
  | Adv_withhold of { party : int; round : int; kind : string }
      (** A corrupt party suppressed one of its own shares; [kind] is
          ["beacon-share"], ["notarization-share"] or
          ["finalization-share"]. *)
  | Adv_censor of { src : int; dst : int; kind : string }
      (** A corrupt sender silently dropped a message to a censored peer. *)
  | Adv_delay of { src : int; dst : int; kind : string; by : float }
      (** A corrupt sender (stealthy leader) held a message back [by]
          seconds before transmitting. *)
  | Adv_straggle of { src : int; dst : int; kind : string }
      (** Unknown-participation straggler: a corrupt sender probabilistically
          failed to transmit this copy (Losa–Gafni message adversary). *)
  | Resync_summary of { party : int; peer : int; round : int; kmax : int }
      (** Periodic pool summary ([round], finalization cursor [kmax])
          unicast to one rotating peer. *)
  | Resync_request of { party : int; peer : int; from_round : int; upto : int }
      (** Pull request for rounds [\[from_round, upto\]] from a peer that
          announced a higher frontier. *)
  | Resync_reply of {
      party : int;
      peer : int;
      from_round : int;
      upto : int;
      count : int;
    }  (** [count] pool artifacts retransmitted for the window. *)
  | Prof_span of { name : string; count : int; total_us : int; self_us : int }
      (** Profiler snapshot: aggregate wall-clock for one span name
          ([total_us] includes children, [self_us] excludes them), emitted
          once per span name just before [Run_end] when profiling is on.
          Integer microseconds, so the JSON round-trip is exact. *)
  | Prof_counter of { name : string; value : int }
      (** Registry counter value at end of run (profiling runs only). *)

type level = Core | Detail

val level_of : event -> level
(** [Core] events drive {!Metrics} and {!Monitor} safety checks; [Detail]
    events exist for observability only and are skipped entirely (not even
    constructed, at guarded call sites) unless a full subscriber is
    present. *)

type t

val create : unit -> t

val subscribe : ?all:bool -> t -> (time:float -> event -> unit) -> unit
(** Register a sink, called synchronously in subscription order.  With
    [all:false] the sink receives only [Core] events.  Sinks must not
    mutate simulation state; they may re-enter {!emit} (the monitor
    announces violations this way). *)

val active : t -> bool
(** Some sink is subscribed. *)

val detailed : t -> bool
(** Some sink wants [Detail] events; emitting layers use this to skip
    constructing them otherwise. *)

val emit : t -> time:float -> event -> unit
(** No-op without subscribers; [Detail] events go only to [all] sinks. *)

val kind_of : event -> string
(** Stable kebab-case tag, e.g. ["net-send"] — the ["ev"] field of
    {!to_json}. *)

val to_json : time:float -> event -> string
(** One JSON object (no trailing newline):
    [{"t":<time>,"ev":"<kind>",...payload fields}]. *)

val of_json : string -> (float * event, string) result
(** Parse one line produced by {!to_json} back into [(time, event)].
    Exact inverse over every constructor; [Error] carries a message with
    the offending byte offset for malformed input. *)
