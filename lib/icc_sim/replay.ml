(* Offline trace analysis: read a [--trace] JSONL dump back into typed
   events ({!Trace.of_json}) and fold them through the same {!Metrics}
   tally the online sink runs, so `icc analyze` agrees with the `icc run`
   that wrote the trace by construction.  Only the causal view
   ([critical_path]) walks the events itself: it selects one round's
   events rather than tallying them.

   This module is pure aggregation; the [icc analyze] report printer lives
   in Icc_experiments.Analyze. *)

type entry = { time : float; event : Trace.event; line : int } (* 0-based *)

type load_result = {
  entries : entry array;
  errors : (int * string) list; (* (0-based line, message), in file order *)
}

let parse_lines lines =
  let entries = ref [] and errors = ref [] and line_no = ref (-1) in
  List.iter
    (fun line ->
      incr line_no;
      if String.trim line <> "" then
        match Trace.of_json line with
        | Ok (time, event) ->
            entries := { time; event; line = !line_no } :: !entries
        | Error msg -> errors := (!line_no, msg) :: !errors)
    lines;
  { entries = Array.of_list (List.rev !entries); errors = List.rev !errors }

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      parse_lines (List.rev !lines))

(* Re-run the online monitor over a recorded stream.  Monitor_* events
   already present in the dump are fed through too (the monitor counts but
   ignores them), so reported event indices keep matching file lines. *)
let monitor ?(config = Monitor.default_config ~delta:1.0 ()) entries =
  let m = Monitor.create config in
  Array.iter (fun e -> Monitor.observe m ~time:e.time e.event) entries;
  m

(* --- traffic ----------------------------------------------------------- *)

let parties entries =
  let n = ref 0 in
  Array.iter
    (fun e ->
      match e.event with
      | Trace.Run_start { n = rn; _ } -> n := max !n rn
      | Trace.Net_send { src; dst; _ } | Trace.Net_deliver { src; dst; _ } ->
          n := max !n (max src dst)
      | Trace.Run_end _ | Trace.Engine_dispatch _ | Trace.Net_hold _
      | Trace.Gossip_publish _ | Trace.Gossip_request _ | Trace.Gossip_acquire _
      | Trace.Rbc_fragment _ | Trace.Rbc_echo _ | Trace.Rbc_reconstruct _
      | Trace.Rbc_inconsistent _ | Trace.Round_entry _ | Trace.Propose _
      | Trace.Notarize _ | Trace.Finalize _ | Trace.Beacon_share _
      | Trace.Commit _ | Trace.Block_decided _ | Trace.Protocol_error _ | Trace.Monitor_violation _
      | Trace.Monitor_stall _ | Trace.Monitor_clear _ | Trace.Fault_drop _
      | Trace.Fault_duplicate _ | Trace.Fault_reorder _ | Trace.Fault_link_down _
      | Trace.Fault_crash _ | Trace.Fault_recover _ | Trace.Adv_corrupt _ | Trace.Adv_equivocate _
      | Trace.Adv_withhold _ | Trace.Adv_censor _ | Trace.Adv_delay _
      | Trace.Adv_straggle _ | Trace.Resync_summary _
      | Trace.Resync_request _ | Trace.Resync_reply _ | Trace.Prof_span _
      | Trace.Prof_counter _ -> ())
    entries;
  !n

(* The one tally: every entry through {!Metrics.observe}, sized by
   [parties].  The views below are projections of it. *)
let fold entries =
  let m = Metrics.create (parties entries) in
  Array.iter (fun e -> Metrics.observe m ~time:e.time e.event) entries;
  m

type bandwidth = {
  bw_n : int;
  bw_msgs : int array array; (* [src][dst] transmissions, indices 1..n *)
  bw_bytes : int array array;
  bw_sent_bytes : int array; (* per src, row totals *)
  bw_recv_bytes : int array; (* per dst, column totals *)
  bw_by_kind : (string * int * int) list; (* kind, msgs, bytes — sorted *)
  bw_total_msgs : int;
  bw_total_bytes : int;
}

let bandwidth_of m =
  let n = Metrics.n m and bytes = Metrics.link_bytes m in
  let by_kind = Metrics.kinds m in
  {
    bw_n = n;
    bw_msgs = Metrics.link_msgs m;
    bw_bytes = bytes;
    bw_sent_bytes = Array.map (Array.fold_left ( + ) 0) bytes;
    bw_recv_bytes =
      Array.init (n + 1) (fun j ->
          Array.fold_left (fun acc row -> acc + row.(j)) 0 bytes);
    bw_by_kind = by_kind;
    bw_total_msgs = List.fold_left (fun a (_, m, _) -> a + m) 0 by_kind;
    bw_total_bytes = List.fold_left (fun a (_, _, b) -> a + b) 0 by_kind;
  }

let bandwidth entries = bandwidth_of (fold entries)

(* --- per-round pipeline ------------------------------------------------ *)

type round_row = Metrics.round_row = private {
  r_round : int;
  mutable r_entry : float option; (* first Round_entry *)
  mutable r_propose : float option;
  mutable r_notarize : float option;
  mutable r_finalize : float option;
  mutable r_decided : float option;
}

let rounds entries = Metrics.rounds (fold entries)

(* --- dissemination amplification --------------------------------------- *)

type amplification = {
  amp_decided : int; (* Block_decided count *)
  amp_msgs_per_block : float;
  amp_bytes_per_block : float;
  amp_gossip_publish : int;
  amp_gossip_request : int;
  amp_gossip_acquire : int;
  amp_acquire_per_publish : float; (* artifact fan-out over the peer graph *)
  amp_rbc_fragments : int;
  amp_rbc_echoes : int;
  amp_rbc_reconstructs : int;
  amp_rbc_inconsistent : int;
}

let amplification_of m =
  let decided = Metrics.finalized_blocks m and d = Metrics.dissemination m in
  let msgs, bytes =
    List.fold_left (fun (am, ab) (_, m, b) -> (am + m, ab + b)) (0, 0)
      (Metrics.kinds m)
  in
  let ratio a b = if b = 0 then nan else float_of_int a /. float_of_int b in
  {
    amp_decided = decided;
    amp_msgs_per_block = ratio msgs decided;
    amp_bytes_per_block = ratio bytes decided;
    amp_gossip_publish = d.gossip_publish;
    amp_gossip_request = d.gossip_request;
    amp_gossip_acquire = d.gossip_acquire;
    amp_acquire_per_publish = ratio d.gossip_acquire d.gossip_publish;
    amp_rbc_fragments = d.rbc_fragments;
    amp_rbc_echoes = d.rbc_echoes;
    amp_rbc_reconstructs = d.rbc_reconstructs;
    amp_rbc_inconsistent = d.rbc_inconsistent;
  }

let amplification entries = amplification_of (fold entries)

(* --- causal critical path ---------------------------------------------- *)

type path_step = { ps_label : string; ps_time : float; ps_delta : float }

(* Milestone-level critical path of one round: entry, the proposal, the
   first/median/last notarization (the last honest notarizer is what gates
   the next round), the finalization certificate and the decision.  The
   slowest link is the chain's bottleneck. *)
let critical_path entries ~round =
  let entry = ref None
  and propose = ref None
  and notarizes = ref []
  and finalize = ref None
  and decided = ref None in
  Array.iter
    (fun e ->
      match e.event with
      | Trace.Round_entry { round = r; _ } when r = round ->
          if !entry = None then entry := Some e.time
      | Trace.Propose { round = r; party } when r = round ->
          if !propose = None then propose := Some (e.time, party)
      | Trace.Notarize { round = r; party; _ } when r = round ->
          notarizes := (e.time, party) :: !notarizes
      | Trace.Finalize { round = r; _ } when r = round ->
          if !finalize = None then finalize := Some e.time
      | Trace.Block_decided { round = r; _ } when r = round ->
          if !decided = None then decided := Some e.time
      (* every handled arm above is guarded, so each constructor must also
         appear here for the off-round fall-through *)
      | Trace.Run_start _ | Trace.Run_end _ | Trace.Engine_dispatch _
      | Trace.Net_send _ | Trace.Net_deliver _ | Trace.Net_hold _
      | Trace.Gossip_publish _ | Trace.Gossip_request _ | Trace.Gossip_acquire _
      | Trace.Rbc_fragment _ | Trace.Rbc_echo _ | Trace.Rbc_reconstruct _
      | Trace.Rbc_inconsistent _ | Trace.Round_entry _ | Trace.Propose _
      | Trace.Notarize _ | Trace.Finalize _ | Trace.Beacon_share _
      | Trace.Commit _ | Trace.Block_decided _ | Trace.Protocol_error _ | Trace.Monitor_violation _
      | Trace.Monitor_stall _ | Trace.Monitor_clear _ | Trace.Fault_drop _
      | Trace.Fault_duplicate _ | Trace.Fault_reorder _ | Trace.Fault_link_down _
      | Trace.Fault_crash _ | Trace.Fault_recover _ | Trace.Adv_corrupt _ | Trace.Adv_equivocate _
      | Trace.Adv_withhold _ | Trace.Adv_censor _ | Trace.Adv_delay _
      | Trace.Adv_straggle _ | Trace.Resync_summary _
      | Trace.Resync_request _ | Trace.Resync_reply _ | Trace.Prof_span _
      | Trace.Prof_counter _ -> ())
    entries;
  (* keyed (time, then party) order: the trace's (float, int) pairs must
     not go through polymorphic compare (D1) *)
  let by_time_party (t1, p1) (t2, p2) =
    match Float.compare t1 t2 with 0 -> Int.compare p1 p2 | c -> c
  in
  let notarizes = List.sort by_time_party (List.rev !notarizes) in
  let steps = ref [] in
  let prev = ref None in
  let add label time =
    let delta = match !prev with None -> 0. | Some p -> time -. p in
    prev := Some time;
    steps := { ps_label = label; ps_time = time; ps_delta = delta } :: !steps
  in
  Option.iter (fun t -> add "round-entry" t) !entry;
  Option.iter
    (fun (t, party) -> add (Printf.sprintf "propose (party %d)" party) t)
    !propose;
  (match notarizes with
  | [] -> ()
  | l ->
      let arr = Array.of_list l in
      let len = Array.length arr in
      let t0, p0 = arr.(0) in
      add (Printf.sprintf "first notarize (party %d)" p0) t0;
      if len > 2 then begin
        let tm, pm = arr.(len / 2) in
        add (Printf.sprintf "median notarize (party %d)" pm) tm
      end;
      if len > 1 then begin
        let tl, pl = arr.(len - 1) in
        add (Printf.sprintf "last notarize (party %d)" pl) tl
      end);
  Option.iter (fun t -> add "finalize cert" t) !finalize;
  Option.iter (fun t -> add "block decided" t) !decided;
  List.rev !steps
