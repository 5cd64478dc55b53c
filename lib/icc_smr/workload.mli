(** Client workload generators for the replicated key-value store, and a
    one-call replicated-KV deployment over ICC0. *)

val kv_tag : int -> string
(** Deterministic mixed workload (sets, deletes, counters) keyed by command
    id. *)

val kv_load : rate_per_s:float -> cmd_size:int -> Icc_core.Runner.workload

type smr_result = {
  consensus : Icc_core.Runner.result;
  replicas : (int * Replica.t) list;
  states_agree : bool;
}

val run_kv :
  Icc_core.Runner.scenario -> rate_per_s:float -> cmd_size:int -> smr_result
