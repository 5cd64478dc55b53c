(* Offline trace analysis report — the printing layer of `icc analyze`.
   All aggregation lives in Icc_sim.Replay (one Metrics fold over the
   trace, projected three ways); this module renders the
   waterfall, bandwidth matrices, amplification factors and critical path
   as terminal tables. *)

type report = {
  path : string;
  load : Icc_sim.Replay.load_result;
  monitor : Icc_sim.Monitor.t;
  bandwidth : Icc_sim.Replay.bandwidth;
  rounds : Icc_sim.Replay.round_row list;
  amplification : Icc_sim.Replay.amplification;
  critical_round : int option;
  critical_path : Icc_sim.Replay.path_step list;
}

(* Pick the round whose critical path we walk by default: the last round
   that actually decided tells the most complete story. *)
let default_critical_round rounds =
  List.fold_left
    (fun acc (r : Icc_sim.Replay.round_row) ->
      if r.r_decided <> None then Some r.r_round else acc)
    None rounds

let analyze ?config ?round path =
  let load = Icc_sim.Replay.load_file path in
  let monitor = Icc_sim.Replay.monitor ?config load.entries in
  let tally = Icc_sim.Replay.fold load.entries in
  let rounds = Icc_sim.Metrics.rounds tally in
  let critical_round =
    match round with Some r -> Some r | None -> default_critical_round rounds
  in
  {
    path;
    load;
    monitor;
    bandwidth = Icc_sim.Replay.bandwidth_of tally;
    rounds;
    amplification = Icc_sim.Replay.amplification_of tally;
    critical_round;
    critical_path =
      (match critical_round with
      | Some round -> Icc_sim.Replay.critical_path load.entries ~round
      | None -> []);
  }

let ok r = Icc_sim.Monitor.ok r.monitor

(* --- rendering --------------------------------------------------------- *)

let opt_delta later earlier =
  match (later, earlier) with
  | Some l, Some e -> Printf.sprintf "%8.4f" (l -. e)
  | _ -> "       -"

let opt_time = function
  | Some t -> Printf.sprintf "%9.4f" t
  | None -> "        -"

let human_bytes b =
  if b >= 10_000_000 then Printf.sprintf "%.1fMB" (float_of_int b /. 1e6)
  else if b >= 10_000 then Printf.sprintf "%.1fkB" (float_of_int b /. 1e3)
  else Printf.sprintf "%dB" b

let print_header r =
  Printf.printf "trace    %s\n" r.path;
  Printf.printf "events   %d parsed" (Array.length r.load.entries);
  (match r.load.errors with
  | [] -> print_newline ()
  | errors ->
      Printf.printf ", %d unparseable line%s (first: line %d: %s)\n"
        (List.length errors)
        (if List.length errors = 1 then "" else "s")
        (1 + fst (List.hd errors))
        (snd (List.hd errors)));
  Printf.printf "parties  %d\n" r.bandwidth.bw_n

let print_monitor r =
  print_newline ();
  print_endline (Icc_sim.Monitor.report r.monitor)

(* Per-round pipeline waterfall: per-stage deltas, then p50/p99 rows over
   the rounds that completed each stage. *)
let print_waterfall r =
  print_newline ();
  print_endline "round pipeline (seconds; deltas between stage arrivals)";
  print_endline
    "round      entry    +propose  +notarize  +finalize   +decided";
  let d_propose = ref [] and d_notarize = ref [] in
  let d_finalize = ref [] and d_decided = ref [] in
  let push acc later earlier =
    match (later, earlier) with
    | Some l, Some e -> acc := (l -. e) :: !acc
    | _ -> ()
  in
  List.iter
    (fun (row : Icc_sim.Replay.round_row) ->
      push d_propose row.r_propose row.r_entry;
      push d_notarize row.r_notarize row.r_propose;
      push d_finalize row.r_finalize row.r_notarize;
      push d_decided row.r_decided row.r_entry;
      Printf.printf "%5d  %s   %s   %s   %s   %s\n" row.r_round
        (opt_time row.r_entry)
        (opt_delta row.r_propose row.r_entry)
        (opt_delta row.r_notarize row.r_propose)
        (opt_delta row.r_finalize row.r_notarize)
        (opt_delta row.r_decided row.r_entry))
    r.rounds;
  let stat name samples =
    (* sort once, query both ranks from the sorted view *)
    if samples <> [] then begin
      let sorted = Icc_sim.Metrics.sorted_samples samples in
      Printf.printf "%s  p50 %.4f  p99 %.4f  (n=%d)\n" name
        (Icc_sim.Metrics.percentile_of_sorted 50. sorted)
        (Icc_sim.Metrics.percentile_of_sorted 99. sorted)
        (List.length samples)
    end
  in
  stat "entry->propose " !d_propose;
  stat "propose->notar " !d_notarize;
  stat "notar->finalize" !d_finalize;
  stat "entry->decided " !d_decided

let print_bandwidth r =
  let bw = r.bandwidth in
  print_newline ();
  Printf.printf "bandwidth: %d msgs, %s total\n" bw.bw_total_msgs
    (human_bytes bw.bw_total_bytes);
  print_endline "by kind:";
  List.iter
    (fun (kind, msgs, bytes) ->
      Printf.printf "  %-18s %8d msgs  %10s\n" kind msgs (human_bytes bytes))
    bw.bw_by_kind;
  if bw.bw_n > 0 && bw.bw_n <= 16 then begin
    print_endline "bytes src -> dst (broadcast spread over recipients):";
    print_string "        ";
    for dst = 1 to bw.bw_n do
      Printf.printf "%9s" (Printf.sprintf "->%d" dst)
    done;
    print_string "      sent\n";
    for src = 1 to bw.bw_n do
      Printf.printf "  p%-3d  " src;
      for dst = 1 to bw.bw_n do
        Printf.printf "%9s"
          (if src = dst then "." else human_bytes bw.bw_bytes.(src).(dst))
      done;
      Printf.printf "%10s\n" (human_bytes bw.bw_sent_bytes.(src))
    done;
    print_string "  recv  ";
    for dst = 1 to bw.bw_n do
      Printf.printf "%9s" (human_bytes bw.bw_recv_bytes.(dst))
    done;
    print_newline ()
  end
  else if bw.bw_n > 16 then
    Printf.printf "(per-party matrix suppressed for n = %d > 16)\n" bw.bw_n

let print_amplification r =
  let a = r.amplification in
  print_newline ();
  Printf.printf "amplification: %d blocks decided" a.amp_decided;
  if a.amp_decided > 0 then
    Printf.printf ", %.1f msgs/block, %s/block" a.amp_msgs_per_block
      (human_bytes (int_of_float a.amp_bytes_per_block));
  print_newline ();
  if a.amp_gossip_publish > 0 then
    Printf.printf
      "  gossip: %d publish, %d request, %d acquire (%.2f acquires/publish)\n"
      a.amp_gossip_publish a.amp_gossip_request a.amp_gossip_acquire
      a.amp_acquire_per_publish;
  if a.amp_rbc_fragments > 0 || a.amp_rbc_echoes > 0 then
    Printf.printf
      "  rbc: %d fragments, %d echoes, %d reconstructs, %d inconsistent\n"
      a.amp_rbc_fragments a.amp_rbc_echoes a.amp_rbc_reconstructs
      a.amp_rbc_inconsistent

(* Nemesis / recovery summary: what the fault layer did to this run and
   how much resync traffic it took to repair. *)
let print_faults r =
  let drops = ref 0 and dups = ref 0 and reorders = ref 0 in
  let link_downs = ref 0 and crashes = ref [] and recovers = ref [] in
  let summaries = ref 0 and requests = ref 0 and replies = ref 0 in
  let resent = ref 0 in
  let corrupts = ref [] and equivs = ref 0 and withholds = ref 0 in
  let censors = ref 0 and delays = ref 0 and straggles = ref 0 in
  Array.iter
    (fun (e : Icc_sim.Replay.entry) ->
      match e.Icc_sim.Replay.event with
      | Icc_sim.Trace.Fault_drop _ -> incr drops
      | Icc_sim.Trace.Fault_duplicate _ -> incr dups
      | Icc_sim.Trace.Fault_reorder _ -> incr reorders
      | Icc_sim.Trace.Fault_link_down _ -> incr link_downs
      | Icc_sim.Trace.Fault_crash { party } -> crashes := party :: !crashes
      | Icc_sim.Trace.Fault_recover { party } -> recovers := party :: !recovers
      | Icc_sim.Trace.Resync_summary _ -> incr summaries
      | Icc_sim.Trace.Resync_request _ -> incr requests
      | Icc_sim.Trace.Resync_reply { count; _ } ->
          incr replies;
          resent := !resent + count
      | Icc_sim.Trace.Adv_corrupt { party; _ } -> corrupts := party :: !corrupts
      | Icc_sim.Trace.Adv_equivocate _ -> incr equivs
      | Icc_sim.Trace.Adv_withhold _ -> incr withholds
      | Icc_sim.Trace.Adv_censor _ -> incr censors
      | Icc_sim.Trace.Adv_delay _ -> incr delays
      | Icc_sim.Trace.Adv_straggle _ -> incr straggles
      | Icc_sim.Trace.Run_start _ | Icc_sim.Trace.Run_end _
      | Icc_sim.Trace.Engine_dispatch _ | Icc_sim.Trace.Net_send _
      | Icc_sim.Trace.Net_deliver _ | Icc_sim.Trace.Net_hold _
      | Icc_sim.Trace.Gossip_publish _ | Icc_sim.Trace.Gossip_request _
      | Icc_sim.Trace.Gossip_acquire _ | Icc_sim.Trace.Rbc_fragment _
      | Icc_sim.Trace.Rbc_echo _ | Icc_sim.Trace.Rbc_reconstruct _
      | Icc_sim.Trace.Rbc_inconsistent _ | Icc_sim.Trace.Round_entry _
      | Icc_sim.Trace.Propose _ | Icc_sim.Trace.Notarize _
      | Icc_sim.Trace.Finalize _ | Icc_sim.Trace.Beacon_share _
      | Icc_sim.Trace.Commit _ | Icc_sim.Trace.Block_decided _
      | Icc_sim.Trace.Protocol_error _ | Icc_sim.Trace.Monitor_violation _
      | Icc_sim.Trace.Monitor_stall _ | Icc_sim.Trace.Monitor_clear _
      | Icc_sim.Trace.Prof_span _ | Icc_sim.Trace.Prof_counter _ -> ())
    r.load.Icc_sim.Replay.entries;
  let total_faults = !drops + !dups + !reorders + !link_downs in
  if total_faults > 0 || !crashes <> [] || !summaries > 0 then begin
    print_newline ();
    Printf.printf
      "nemesis: %d drops, %d duplicates, %d reorders, %d link holds\n" !drops
      !dups !reorders !link_downs;
    (if !crashes <> [] || !recovers <> [] then
       let ids l =
         String.concat "," (List.map string_of_int (List.sort_uniq compare l))
       in
       Printf.printf "  crashes: %d (parties %s), recoveries: %d (parties %s)\n"
         (List.length !crashes) (ids !crashes) (List.length !recovers)
         (ids !recovers));
    if !summaries > 0 then
      Printf.printf
        "  resync: %d summaries, %d requests, %d replies (%d artifacts resent)\n"
        !summaries !requests !replies !resent
  end;
  let total_adv = !equivs + !withholds + !censors + !delays + !straggles in
  if !corrupts <> [] || total_adv > 0 then begin
    print_newline ();
    let ids l =
      String.concat "," (List.map string_of_int (List.sort_uniq Int.compare l))
    in
    Printf.printf "adversary: %d corruption%s (parties %s)\n"
      (List.length (List.sort_uniq Int.compare !corrupts))
      (if List.length (List.sort_uniq Int.compare !corrupts) = 1 then ""
       else "s")
      (ids !corrupts);
    Printf.printf
      "  %d equivocations, %d withholds, %d censored, %d delayed, %d straggled\n"
      !equivs !withholds !censors !delays !straggles
  end

(* Satellite of the adversary layer: when the monitor caught a safety
   violation, dump the offending adv-*/monitor-* event window around each
   fatal violation so the attack is reproducible from the trace alone —
   rounds, parties and digests all appear verbatim in the JSONL lines. *)
let print_violation_window r =
  let fatal = Icc_sim.Monitor.fatal_violations r.monitor in
  if fatal <> [] then begin
    let entries = r.load.Icc_sim.Replay.entries in
    let is_relevant ~lo ~hi (e : Icc_sim.Replay.entry) =
      let in_window round = round >= lo && round <= hi in
      match e.Icc_sim.Replay.event with
      | Icc_sim.Trace.Adv_corrupt { round; _ }
      | Icc_sim.Trace.Adv_equivocate { round; _ }
      | Icc_sim.Trace.Adv_withhold { round; _ }
      | Icc_sim.Trace.Monitor_violation { round; _ }
      | Icc_sim.Trace.Notarize { round; _ }
      | Icc_sim.Trace.Finalize { round; _ } ->
          in_window round
      | Icc_sim.Trace.Adv_censor _ | Icc_sim.Trace.Adv_delay _
      | Icc_sim.Trace.Adv_straggle _ | Icc_sim.Trace.Run_start _
      | Icc_sim.Trace.Run_end _ | Icc_sim.Trace.Engine_dispatch _
      | Icc_sim.Trace.Net_send _ | Icc_sim.Trace.Net_deliver _
      | Icc_sim.Trace.Net_hold _ | Icc_sim.Trace.Gossip_publish _
      | Icc_sim.Trace.Gossip_request _ | Icc_sim.Trace.Gossip_acquire _
      | Icc_sim.Trace.Rbc_fragment _ | Icc_sim.Trace.Rbc_echo _
      | Icc_sim.Trace.Rbc_reconstruct _ | Icc_sim.Trace.Rbc_inconsistent _
      | Icc_sim.Trace.Round_entry _ | Icc_sim.Trace.Propose _
      | Icc_sim.Trace.Beacon_share _ | Icc_sim.Trace.Commit _
      | Icc_sim.Trace.Block_decided _ | Icc_sim.Trace.Protocol_error _
      | Icc_sim.Trace.Monitor_stall _ | Icc_sim.Trace.Monitor_clear _
      | Icc_sim.Trace.Fault_drop _ | Icc_sim.Trace.Fault_duplicate _
      | Icc_sim.Trace.Fault_reorder _ | Icc_sim.Trace.Fault_link_down _
      | Icc_sim.Trace.Fault_crash _ | Icc_sim.Trace.Fault_recover _
      | Icc_sim.Trace.Resync_summary _ | Icc_sim.Trace.Resync_request _
      | Icc_sim.Trace.Resync_reply _ | Icc_sim.Trace.Prof_span _
      | Icc_sim.Trace.Prof_counter _ ->
          false
    in
    List.iter
      (fun (v : Icc_sim.Monitor.violation) ->
        print_newline ();
        Printf.printf
          "violation window: %s in round %d (events of rounds %d..%d)\n"
          v.Icc_sim.Monitor.v_what v.v_round (max 1 (v.v_round - 1))
          (v.v_round + 1);
        let lo = max 1 (v.v_round - 1) and hi = v.v_round + 1 in
        Array.iteri
          (fun i (e : Icc_sim.Replay.entry) ->
            if is_relevant ~lo ~hi e then
              Printf.printf "  line %-7d %s\n" (i + 1)
                (Icc_sim.Trace.to_json ~time:e.Icc_sim.Replay.time
                   e.Icc_sim.Replay.event))
          entries)
      fatal
  end

(* Profiler snapshot carried on the bus ([prof-span]/[prof-counter] lines,
   present only when the run was profiled), rendered by the same table as
   [icc profile]: every span, self-time descending, plus the counters. *)
let print_profile r =
  let spans = ref [] and counters = ref [] in
  let secs us = float_of_int us /. 1e6 in
  Array.iter
    (fun (e : Icc_sim.Replay.entry) ->
      match e.Icc_sim.Replay.event with
      | Icc_sim.Trace.Prof_span { name; count; total_us; self_us } ->
          spans :=
            {
              Icc_obs.Profile.sp_name = name;
              sp_count = count;
              sp_total_s = secs total_us;
              sp_self_s = secs self_us;
            }
            :: !spans
      | Icc_sim.Trace.Prof_counter { name; value } ->
          counters := (name, value) :: !counters
      | Icc_sim.Trace.Run_start _ | Icc_sim.Trace.Run_end _
      | Icc_sim.Trace.Engine_dispatch _ | Icc_sim.Trace.Net_send _
      | Icc_sim.Trace.Net_deliver _ | Icc_sim.Trace.Net_hold _
      | Icc_sim.Trace.Gossip_publish _ | Icc_sim.Trace.Gossip_request _
      | Icc_sim.Trace.Gossip_acquire _ | Icc_sim.Trace.Rbc_fragment _
      | Icc_sim.Trace.Rbc_echo _ | Icc_sim.Trace.Rbc_reconstruct _
      | Icc_sim.Trace.Rbc_inconsistent _ | Icc_sim.Trace.Round_entry _
      | Icc_sim.Trace.Propose _ | Icc_sim.Trace.Notarize _
      | Icc_sim.Trace.Finalize _ | Icc_sim.Trace.Beacon_share _
      | Icc_sim.Trace.Commit _ | Icc_sim.Trace.Block_decided _
      | Icc_sim.Trace.Protocol_error _ | Icc_sim.Trace.Monitor_violation _
      | Icc_sim.Trace.Monitor_stall _ | Icc_sim.Trace.Monitor_clear _
      | Icc_sim.Trace.Fault_drop _ | Icc_sim.Trace.Fault_duplicate _
      | Icc_sim.Trace.Fault_reorder _ | Icc_sim.Trace.Fault_link_down _
      | Icc_sim.Trace.Fault_crash _ | Icc_sim.Trace.Fault_recover _
      | Icc_sim.Trace.Adv_corrupt _ | Icc_sim.Trace.Adv_equivocate _
      | Icc_sim.Trace.Adv_withhold _ | Icc_sim.Trace.Adv_censor _
      | Icc_sim.Trace.Adv_delay _ | Icc_sim.Trace.Adv_straggle _
      | Icc_sim.Trace.Resync_summary _ | Icc_sim.Trace.Resync_request _
      | Icc_sim.Trace.Resync_reply _ -> ())
    r.load.Icc_sim.Replay.entries;
  if !spans <> [] then begin
    print_newline ();
    print_string
      (Icc_obs.Profile.render ~top:0
         {
           spans = !spans;
           counters = List.rev !counters;
           rounds = [];
           parties = [];
         })
  end

let print_critical_path r =
  match r.critical_round with
  | None -> ()
  | Some round ->
      print_newline ();
      Printf.printf "critical path, round %d (propose -> decided):\n" round;
      if r.critical_path = [] then
        print_endline "  (round not present in the trace)"
      else
        List.iter
          (fun (s : Icc_sim.Replay.path_step) ->
            Printf.printf "  %9.4f  +%.4f  %s\n" s.ps_time s.ps_delta
              s.ps_label)
          r.critical_path

let print r =
  print_header r;
  print_monitor r;
  print_waterfall r;
  print_bandwidth r;
  print_amplification r;
  print_faults r;
  print_violation_window r;
  print_profile r;
  print_critical_path r
