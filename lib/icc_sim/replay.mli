(** Offline trace analysis: parse a [--trace] JSONL dump back into typed
    events, fold them through {!Metrics.observe} — the same tally the
    online sink runs — and project per-round pipelines, bandwidth matrices
    and dissemination amplification from it; plus causal critical paths.
    Pure aggregation — the [icc analyze] printer lives in
    [Icc_experiments.Analyze]. *)

type entry = {
  time : float;
  event : Trace.event;
  line : int;  (** 0-based line in the source file. *)
}

type load_result = {
  entries : entry array;  (** Parsed events, in file order. *)
  errors : (int * string) list;  (** Unparseable lines: (line, message). *)
}

val parse_lines : string list -> load_result
val load_file : string -> load_result

val monitor : ?config:Monitor.config -> entry array -> Monitor.t
(** Re-run the online {!Monitor} over a recorded stream.  [Monitor_*]
    events already in the dump are counted but ignored, so reported
    indices keep matching file lines. *)

val parties : entry array -> int
(** [n] from [Run_start], widened by any party id seen in traffic. *)

val fold : entry array -> Metrics.t
(** A {!Metrics.t} sized with {!parties}, with every entry observed in
    file order.  {!bandwidth}, {!rounds} and {!amplification} are
    projections of it. *)

(** {1 Bandwidth} *)

type bandwidth = {
  bw_n : int;
  bw_msgs : int array array;
      (** Transmissions, indexed [src][dst] over 1..n ({!Metrics.link_msgs},
          with its broadcast convention). *)
  bw_bytes : int array array;
  bw_sent_bytes : int array;  (** Row totals per src. *)
  bw_recv_bytes : int array;  (** Column totals per dst. *)
  bw_by_kind : (string * int * int) list;  (** kind, msgs, bytes; sorted. *)
  bw_total_msgs : int;
  bw_total_bytes : int;
}

val bandwidth : entry array -> bandwidth
val bandwidth_of : Metrics.t -> bandwidth

(** {1 Per-round pipeline} *)

type round_row = Metrics.round_row = private {
  r_round : int;
  mutable r_entry : float option;  (** First [Round_entry]. *)
  mutable r_propose : float option;
  mutable r_notarize : float option;
  mutable r_finalize : float option;
  mutable r_decided : float option;
}

val rounds : entry array -> round_row list
(** [Metrics.rounds (fold entries)]: ascending by round. *)

(** {1 Dissemination amplification} *)

type amplification = {
  amp_decided : int;
  amp_msgs_per_block : float;
  amp_bytes_per_block : float;
  amp_gossip_publish : int;
  amp_gossip_request : int;
  amp_gossip_acquire : int;
  amp_acquire_per_publish : float;
  amp_rbc_fragments : int;
  amp_rbc_echoes : int;
  amp_rbc_reconstructs : int;
  amp_rbc_inconsistent : int;
}

val amplification : entry array -> amplification
val amplification_of : Metrics.t -> amplification

(** {1 Causal critical path} *)

type path_step = {
  ps_label : string;
  ps_time : float;
  ps_delta : float;  (** Seconds since the previous step. *)
}

val critical_path : entry array -> round:int -> path_step list
(** Milestone chain from a round's entry through its proposal, its
    first/median/last notarizations, the finalization certificate and the
    decision; empty if the round never appears. *)
