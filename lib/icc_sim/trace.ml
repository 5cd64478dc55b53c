(* Structured trace bus: one typed event stream for everything the
   simulation does, shared by the engine, the network, the dissemination
   sub-layers (gossip, erasure-coded RBC) and the protocol layer.

   Two subscription levels keep the bus free when nobody is watching:

     - [core] events are the ones {!Metrics} and {!Monitor} consume
       (traffic accounting and the per-round protocol milestones).  Their
       payloads are values the emitting layer has already computed, so
       emitting them costs one allocation plus a list dispatch.
     - detail events (deliveries, holds, gossip/RBC internals, engine
       dispatch, per-party commits) exist only for observability.  Layers
       guard their construction with {!detailed}, so an untraced run never
       builds them — this is the zero-cost-when-off contract.

   Sinks run synchronously in subscription order and must not mutate
   simulation state; nothing about scheduling or randomness depends on who
   is listening, which is what keeps traced and untraced runs of the same
   seed byte-identical.  A sink may re-enter [emit] (the {!Monitor} does,
   to announce violations); the re-emitted event reaches every sink after
   the event being processed, preserving file order in JSONL dumps. *)

type event =
  (* run framing *)
  | Run_start of { n : int; label : string }
  | Run_end of { label : string }
  (* engine *)
  | Engine_dispatch of { seq : int }
  (* network: dst = 0 means broadcast (copies = n - 1) *)
  | Net_send of { src : int; dst : int; kind : string; size : int; copies : int }
  | Net_deliver of { src : int; dst : int; kind : string; size : int }
  | Net_hold of { src : int; dst : int; kind : string; release : float }
  (* gossip sub-layer *)
  | Gossip_publish of { party : int; artifact : string }
  | Gossip_request of { party : int; peer : int; artifact : string }
  | Gossip_acquire of { party : int; peer : int; artifact : string }
  (* erasure-coded reliable broadcast sub-layer *)
  | Rbc_fragment of { party : int; round : int; proposer : int; index : int }
  | Rbc_echo of { party : int; round : int; proposer : int }
  | Rbc_reconstruct of { party : int; round : int; proposer : int }
  | Rbc_inconsistent of { party : int; round : int; proposer : int }
  (* protocol layer; [block] is a short hex digest of the block involved *)
  | Round_entry of { party : int; round : int }
  | Propose of { party : int; round : int }
  | Notarize of { party : int; round : int; block : string }
  | Finalize of { party : int; round : int; block : string }
  | Beacon_share of { party : int; round : int }
  | Commit of { party : int; round : int; block : string }
  | Block_decided of { round : int; block : string }
  (* protocol-layer anomaly that would otherwise abort the run (e.g. a
     certificate combine failing on admission-verified shares) *)
  | Protocol_error of { party : int; round : int; what : string }
  (* online invariant monitor *)
  | Monitor_violation of { round : int; what : string; detail : string }
  | Monitor_stall of { round : int; stage : string; waited : float }
  | Monitor_clear of { round : int; stage : string; waited : float }
  (* fault injection (the {!Fault} nemesis layer) *)
  | Fault_drop of { src : int; dst : int; kind : string }
  | Fault_duplicate of { src : int; dst : int; kind : string; copies : int }
  | Fault_reorder of { src : int; dst : int; kind : string; extra : float }
  | Fault_link_down of { src : int; dst : int; kind : string; release : float }
  | Fault_crash of { party : int }
  | Fault_recover of { party : int }
  (* Byzantine adversary (the {!Adversary} strategy layer) *)
  | Adv_corrupt of { party : int; round : int; strategy : string }
  | Adv_equivocate of {
      party : int;
      round : int;
      block_a : string;
      block_b : string;
    }
  | Adv_withhold of { party : int; round : int; kind : string }
  | Adv_censor of { src : int; dst : int; kind : string }
  | Adv_delay of { src : int; dst : int; kind : string; by : float }
  | Adv_straggle of { src : int; dst : int; kind : string }
  (* pool resync (retransmission/recovery sub-layer) *)
  | Resync_summary of { party : int; peer : int; round : int; kmax : int }
  | Resync_request of { party : int; peer : int; from_round : int; upto : int }
  | Resync_reply of {
      party : int;
      peer : int;
      from_round : int;
      upto : int;
      count : int;
    }
  (* profiler snapshots (emitted once before run-end when profiling is on;
     times are integer microseconds so JSON round-trips are exact) *)
  | Prof_span of { name : string; count : int; total_us : int; self_us : int }
  | Prof_counter of { name : string; value : int }

type level = Core | Detail

let level_of = function
  | Run_start _ | Run_end _ | Net_send _ | Round_entry _ | Propose _
  | Notarize _ | Block_decided _ | Protocol_error _ | Monitor_violation _
  | Monitor_stall _ | Monitor_clear _ | Fault_crash _ | Fault_recover _
  | Adv_corrupt _ | Adv_equivocate _ ->
      Core
  | Engine_dispatch _ | Net_deliver _ | Net_hold _ | Gossip_publish _
  | Gossip_request _ | Gossip_acquire _ | Rbc_fragment _ | Rbc_echo _
  | Rbc_reconstruct _ | Rbc_inconsistent _ | Finalize _ | Beacon_share _
  | Commit _ | Fault_drop _ | Fault_duplicate _ | Fault_reorder _
  | Fault_link_down _ | Adv_withhold _ | Adv_censor _ | Adv_delay _
  | Adv_straggle _ | Resync_summary _ | Resync_request _ | Resync_reply _
  | Prof_span _ | Prof_counter _ ->
      Detail

type sink = { all : bool; fn : time:float -> event -> unit }

type t = {
  mutable sinks : sink list; (* subscription order *)
  mutable detailed : bool; (* some sink wants detail events *)
}

let create () = { sinks = []; detailed = false }

let subscribe ?(all = true) t fn =
  t.sinks <- t.sinks @ [ { all; fn } ];
  if all then t.detailed <- true

let active t = t.sinks <> []
let detailed t = t.detailed

let emit t ~time ev =
  match t.sinks with
  | [] -> ()
  | sinks ->
      let detail = level_of ev = Detail in
      List.iter (fun s -> if s.all || not detail then s.fn ~time ev) sinks

(* --- rendering --------------------------------------------------------- *)

let kind_of = function
  | Run_start _ -> "run-start"
  | Run_end _ -> "run-end"
  | Engine_dispatch _ -> "engine-dispatch"
  | Net_send _ -> "net-send"
  | Net_deliver _ -> "net-deliver"
  | Net_hold _ -> "net-hold"
  | Gossip_publish _ -> "gossip-publish"
  | Gossip_request _ -> "gossip-request"
  | Gossip_acquire _ -> "gossip-acquire"
  | Rbc_fragment _ -> "rbc-fragment"
  | Rbc_echo _ -> "rbc-echo"
  | Rbc_reconstruct _ -> "rbc-reconstruct"
  | Rbc_inconsistent _ -> "rbc-inconsistent"
  | Round_entry _ -> "round-entry"
  | Propose _ -> "propose"
  | Notarize _ -> "notarize"
  | Finalize _ -> "finalize"
  | Beacon_share _ -> "beacon-share"
  | Commit _ -> "commit"
  | Block_decided _ -> "block-decided"
  | Protocol_error _ -> "protocol-error"
  | Monitor_violation _ -> "monitor-violation"
  | Monitor_stall _ -> "monitor-stall"
  | Monitor_clear _ -> "monitor-clear"
  | Fault_drop _ -> "fault-drop"
  | Fault_duplicate _ -> "fault-duplicate"
  | Fault_reorder _ -> "fault-reorder"
  | Fault_link_down _ -> "fault-link-down"
  | Fault_crash _ -> "fault-crash"
  | Fault_recover _ -> "fault-recover"
  | Adv_corrupt _ -> "adv-corrupt"
  | Adv_equivocate _ -> "adv-equivocate"
  | Adv_withhold _ -> "adv-withhold"
  | Adv_censor _ -> "adv-censor"
  | Adv_delay _ -> "adv-delay"
  | Adv_straggle _ -> "adv-straggle"
  | Resync_summary _ -> "resync-summary"
  | Resync_request _ -> "resync-request"
  | Resync_reply _ -> "resync-reply"
  | Prof_span _ -> "prof-span"
  | Prof_counter _ -> "prof-counter"

module J = Icc_obs.Json

let fields_of ev =
  let i k v = (k, J.Int v) and s k v = (k, J.String v) and f k v = (k, J.Float v) in
  match ev with
  | Run_start { n; label } -> [ i "n" n; s "label" label ]
  | Run_end { label } -> [ s "label" label ]
  | Engine_dispatch { seq } -> [ i "seq" seq ]
  | Net_send { src; dst; kind; size; copies } ->
      [ i "src" src; i "dst" dst; s "kind" kind; i "size" size; i "copies" copies ]
  | Net_deliver { src; dst; kind; size } ->
      [ i "src" src; i "dst" dst; s "kind" kind; i "size" size ]
  | Net_hold { src; dst; kind; release } ->
      [ i "src" src; i "dst" dst; s "kind" kind; f "release" release ]
  | Gossip_publish { party; artifact } -> [ i "party" party; s "artifact" artifact ]
  | Gossip_request { party; peer; artifact }
  | Gossip_acquire { party; peer; artifact } ->
      [ i "party" party; i "peer" peer; s "artifact" artifact ]
  | Rbc_fragment { party; round; proposer; index } ->
      [ i "party" party; i "round" round; i "proposer" proposer; i "index" index ]
  | Rbc_echo { party; round; proposer }
  | Rbc_reconstruct { party; round; proposer }
  | Rbc_inconsistent { party; round; proposer } ->
      [ i "party" party; i "round" round; i "proposer" proposer ]
  | Round_entry { party; round }
  | Propose { party; round }
  | Beacon_share { party; round } ->
      [ i "party" party; i "round" round ]
  | Notarize { party; round; block }
  | Finalize { party; round; block }
  | Commit { party; round; block } ->
      [ i "party" party; i "round" round; s "block" block ]
  | Block_decided { round; block } -> [ i "round" round; s "block" block ]
  | Protocol_error { party; round; what } ->
      [ i "party" party; i "round" round; s "what" what ]
  | Monitor_violation { round; what; detail } ->
      [ i "round" round; s "what" what; s "detail" detail ]
  | Monitor_stall { round; stage; waited }
  | Monitor_clear { round; stage; waited } ->
      [ i "round" round; s "stage" stage; f "waited" waited ]
  | Fault_drop { src; dst; kind }
  | Adv_censor { src; dst; kind }
  | Adv_straggle { src; dst; kind } ->
      [ i "src" src; i "dst" dst; s "kind" kind ]
  | Fault_duplicate { src; dst; kind; copies } ->
      [ i "src" src; i "dst" dst; s "kind" kind; i "copies" copies ]
  | Fault_reorder { src; dst; kind; extra } ->
      [ i "src" src; i "dst" dst; s "kind" kind; f "extra" extra ]
  | Fault_link_down { src; dst; kind; release } ->
      [ i "src" src; i "dst" dst; s "kind" kind; f "release" release ]
  | Fault_crash { party } | Fault_recover { party } -> [ i "party" party ]
  | Adv_corrupt { party; round; strategy } ->
      [ i "party" party; i "round" round; s "strategy" strategy ]
  | Adv_equivocate { party; round; block_a; block_b } ->
      [ i "party" party; i "round" round; s "block_a" block_a; s "block_b" block_b ]
  | Adv_withhold { party; round; kind } ->
      [ i "party" party; i "round" round; s "kind" kind ]
  | Adv_delay { src; dst; kind; by } ->
      [ i "src" src; i "dst" dst; s "kind" kind; f "by" by ]
  | Resync_summary { party; peer; round; kmax } ->
      [ i "party" party; i "peer" peer; i "round" round; i "kmax" kmax ]
  | Resync_request { party; peer; from_round; upto } ->
      [ i "party" party; i "peer" peer; i "from" from_round; i "upto" upto ]
  | Resync_reply { party; peer; from_round; upto; count } ->
      [
        i "party" party; i "peer" peer; i "from" from_round; i "upto" upto;
        i "count" count;
      ]
  | Prof_span { name; count; total_us; self_us } ->
      [ s "name" name; i "count" count; i "total_us" total_us; i "self_us" self_us ]
  | Prof_counter { name; value } -> [ s "name" name; i "value" value ]

let to_json ~time ev =
  J.to_string
    (J.Object
       (("t", J.Float time) :: ("ev", J.String (kind_of ev)) :: fields_of ev))

(* --- parsing (the inverse of [to_json]) -------------------------------- *)

exception Parse_error of string

let of_json line =
  match J.parse line with
  | Error msg -> Error msg
  | Ok (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.Array _) ->
      Error "expected an object"
  | Ok (J.Object fields) -> (
      let find name =
        match List.assoc_opt name fields with
        | Some v -> v
        | None -> raise (Parse_error (Printf.sprintf "missing field %S" name))
      in
      let int name =
        match find name with
        | J.Int i -> i
        | J.Null | J.Bool _ | J.Float _ | J.String _ | J.Array _ | J.Object _ ->
            raise (Parse_error (Printf.sprintf "field %S: expected int" name))
      in
      let str name =
        match find name with
        | J.String s -> s
        | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.Array _ | J.Object _ ->
            raise (Parse_error (Printf.sprintf "field %S: expected string" name))
      in
      let flt name =
        match J.number (find name) with
        | Some f -> f
        | None ->
            raise (Parse_error (Printf.sprintf "field %S: expected number" name))
      in
      match
        let time = flt "t" in
        let ev =
          match str "ev" with
          | "run-start" -> Run_start { n = int "n"; label = str "label" }
          | "run-end" -> Run_end { label = str "label" }
          | "engine-dispatch" -> Engine_dispatch { seq = int "seq" }
          | "net-send" ->
              Net_send
                {
                  src = int "src";
                  dst = int "dst";
                  kind = str "kind";
                  size = int "size";
                  copies = int "copies";
                }
          | "net-deliver" ->
              Net_deliver
                {
                  src = int "src";
                  dst = int "dst";
                  kind = str "kind";
                  size = int "size";
                }
          | "net-hold" ->
              Net_hold
                {
                  src = int "src";
                  dst = int "dst";
                  kind = str "kind";
                  release = flt "release";
                }
          | "gossip-publish" ->
              Gossip_publish { party = int "party"; artifact = str "artifact" }
          | "gossip-request" ->
              Gossip_request
                {
                  party = int "party";
                  peer = int "peer";
                  artifact = str "artifact";
                }
          | "gossip-acquire" ->
              Gossip_acquire
                {
                  party = int "party";
                  peer = int "peer";
                  artifact = str "artifact";
                }
          | "rbc-fragment" ->
              Rbc_fragment
                {
                  party = int "party";
                  round = int "round";
                  proposer = int "proposer";
                  index = int "index";
                }
          | "rbc-echo" ->
              Rbc_echo
                {
                  party = int "party";
                  round = int "round";
                  proposer = int "proposer";
                }
          | "rbc-reconstruct" ->
              Rbc_reconstruct
                {
                  party = int "party";
                  round = int "round";
                  proposer = int "proposer";
                }
          | "rbc-inconsistent" ->
              Rbc_inconsistent
                {
                  party = int "party";
                  round = int "round";
                  proposer = int "proposer";
                }
          | "round-entry" ->
              Round_entry { party = int "party"; round = int "round" }
          | "propose" -> Propose { party = int "party"; round = int "round" }
          | "notarize" ->
              Notarize
                { party = int "party"; round = int "round"; block = str "block" }
          | "finalize" ->
              Finalize
                { party = int "party"; round = int "round"; block = str "block" }
          | "beacon-share" ->
              Beacon_share { party = int "party"; round = int "round" }
          | "commit" ->
              Commit
                { party = int "party"; round = int "round"; block = str "block" }
          | "block-decided" ->
              Block_decided { round = int "round"; block = str "block" }
          | "protocol-error" ->
              Protocol_error
                { party = int "party"; round = int "round"; what = str "what" }
          | "monitor-violation" ->
              Monitor_violation
                { round = int "round"; what = str "what"; detail = str "detail" }
          | "monitor-stall" ->
              Monitor_stall
                {
                  round = int "round";
                  stage = str "stage";
                  waited = flt "waited";
                }
          | "monitor-clear" ->
              Monitor_clear
                {
                  round = int "round";
                  stage = str "stage";
                  waited = flt "waited";
                }
          | "fault-drop" ->
              Fault_drop { src = int "src"; dst = int "dst"; kind = str "kind" }
          | "fault-duplicate" ->
              Fault_duplicate
                {
                  src = int "src";
                  dst = int "dst";
                  kind = str "kind";
                  copies = int "copies";
                }
          | "fault-reorder" ->
              Fault_reorder
                {
                  src = int "src";
                  dst = int "dst";
                  kind = str "kind";
                  extra = flt "extra";
                }
          | "fault-link-down" ->
              Fault_link_down
                {
                  src = int "src";
                  dst = int "dst";
                  kind = str "kind";
                  release = flt "release";
                }
          | "fault-crash" -> Fault_crash { party = int "party" }
          | "fault-recover" -> Fault_recover { party = int "party" }
          | "adv-corrupt" ->
              Adv_corrupt
                {
                  party = int "party";
                  round = int "round";
                  strategy = str "strategy";
                }
          | "adv-equivocate" ->
              Adv_equivocate
                {
                  party = int "party";
                  round = int "round";
                  block_a = str "block_a";
                  block_b = str "block_b";
                }
          | "adv-withhold" ->
              Adv_withhold
                { party = int "party"; round = int "round"; kind = str "kind" }
          | "adv-censor" ->
              Adv_censor { src = int "src"; dst = int "dst"; kind = str "kind" }
          | "adv-delay" ->
              Adv_delay
                {
                  src = int "src";
                  dst = int "dst";
                  kind = str "kind";
                  by = flt "by";
                }
          | "adv-straggle" ->
              Adv_straggle
                { src = int "src"; dst = int "dst"; kind = str "kind" }
          | "resync-summary" ->
              Resync_summary
                {
                  party = int "party";
                  peer = int "peer";
                  round = int "round";
                  kmax = int "kmax";
                }
          | "resync-request" ->
              Resync_request
                {
                  party = int "party";
                  peer = int "peer";
                  from_round = int "from";
                  upto = int "upto";
                }
          | "resync-reply" ->
              Resync_reply
                {
                  party = int "party";
                  peer = int "peer";
                  from_round = int "from";
                  upto = int "upto";
                  count = int "count";
                }
          | "prof-span" ->
              Prof_span
                {
                  name = str "name";
                  count = int "count";
                  total_us = int "total_us";
                  self_us = int "self_us";
                }
          | "prof-counter" ->
              Prof_counter { name = str "name"; value = int "value" }
          | other ->
              raise (Parse_error (Printf.sprintf "unknown event kind %S" other))
        in
        (time, ev)
      with
      | exception Parse_error msg -> Error msg
      | parsed -> Ok parsed)
