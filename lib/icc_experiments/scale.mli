(** Experiment E10 — large-n scale-out: ICC0/ICC1 at n in {100..1000}
    with the invariant monitor attached; wall-clock per round and per
    message, and messages/party against the O(n^2) bound, plus
    JSONL-trace round-trips through the offline [icc analyze] pipeline.
    See EXPERIMENTS.md §E10. *)

type row = {
  sc_proto : Scenario.Icc.t;
  sc_n : int;
  sc_rounds : int;
  sc_wall_s : float;
  sc_wall_per_round : float;
  sc_msgs : int;
  sc_msgs_per_party_per_round : float;
  sc_normalized_n2 : float;
  sc_monitor_ok : bool;
  sc_safety_ok : bool;
}

type phase_row = {
  ph_proto : Scenario.Icc.t;
  ph_n : int;
  ph_total_self_s : float;  (** sum of span self-times over the run *)
  ph_crypto_pct : float;  (** [crypto.*] share of self-time *)
  ph_pool_pct : float;  (** [pool.*] *)
  ph_net_pct : float;  (** [net.*] + [gossip.*] + [rbc.*] *)
  ph_engine_pct : float;  (** [engine.*] *)
  ph_other_pct : float;  (** everything else ([party.*], [codec.*], ...) *)
}
(** Where host wall-clock goes at scale, from the self-profiler on a
    separate short leg (the wall-clock rows never run profiled). *)

type trace_check = {
  tc_proto : Scenario.Icc.t;
  tc_n : int;
  tc_events : int;
  tc_rounds_seen : int;
  tc_analyze_ok : bool;
}

val run : ?quick:bool -> unit -> row list * trace_check list * phase_row list
val print : row list * trace_check list * phase_row list -> unit
