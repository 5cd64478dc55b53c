(* Per-party traffic and protocol metrics for one simulation run: the one
   fold over (time, event).  The trace bus drives it online ([attach]),
   and Replay.fold drives it over a parsed trace, so `icc analyze` and the
   `icc run` that wrote the trace run the same code.

   Traffic is accounted at modeled wire sizes (see DESIGN.md): the network
   layer carries the byte size of each message on its [Net_send] events.
   The per-round milestone table is Hashtbl-backed, so recording is O(1)
   per event rather than a scan over all rounds seen so far.

   The per-kind traffic counters sit on the hottest path of all — one
   update per [Net_send], i.e. per broadcast — so they are interned
   arrays, not string-keyed Hashtbls: each distinct kind string is mapped
   to a dense index once, and the common case (the same static kind
   string as the previous event) is a physical-equality hit that touches
   no hash function at all. *)

type round_row = {
  r_round : int;
  mutable r_entry : float option;
  mutable r_propose : float option;
  mutable r_notarize : float option;
  mutable r_finalize : float option;
  mutable r_decided : float option;
}

type dissemination = {
  mutable gossip_publish : int;
  mutable gossip_request : int;
  mutable gossip_acquire : int;
  mutable rbc_fragments : int;
  mutable rbc_echoes : int;
  mutable rbc_reconstructs : int;
  mutable rbc_inconsistent : int;
}

type t = {
  n : int;
  link_msgs : int array array; (* [src][dst], 0..n; rows are per-party sends *)
  link_bytes : int array array;
  (* interned per-kind counters *)
  mutable kind_names : string array;
  mutable kind_msgs : int array;
  mutable kind_bytes : int array;
  mutable kind_count : int;
  mutable last_kind : string; (* memoized last lookup *)
  mutable last_kind_idx : int;
  mutable finalized_blocks : int;
  mutable finalization_log : (int * float) list; (* (round, time), newest first *)
  by_round : (int, round_row) Hashtbl.t; (* first milestone times *)
  mutable latencies : float list; (* propose -> decide, per decided block *)
  mutable latencies_sorted : float array option; (* memoized sorted view *)
  dissemination : dissemination;
}

let create n =
  {
    n;
    link_msgs = Array.make_matrix (n + 1) (n + 1) 0;
    link_bytes = Array.make_matrix (n + 1) (n + 1) 0;
    kind_names = Array.make 16 "";
    kind_msgs = Array.make 16 0;
    kind_bytes = Array.make 16 0;
    kind_count = 0;
    last_kind = "";
    last_kind_idx = -1;
    finalized_blocks = 0;
    finalization_log = [];
    by_round = Hashtbl.create 64;
    latencies = [];
    latencies_sorted = None;
    dissemination =
      {
        gossip_publish = 0;
        gossip_request = 0;
        gossip_acquire = 0;
        rbc_fragments = 0;
        rbc_echoes = 0;
        rbc_reconstructs = 0;
        rbc_inconsistent = 0;
      };
  }

let n t = t.n

(* --- the fold ---------------------------------------------------------- *)

(* Intern [kind], with a fast path for repeat senders: kind strings are
   static literals from [Message.kind] and friends, so physical equality
   with the previous event's kind almost always hits.  The fallback scan
   is over the handful of distinct kinds a run produces. *)
let kind_index t kind =
  if kind == t.last_kind then t.last_kind_idx
  else begin
    let idx = ref (-1) in
    (try
       for i = 0 to t.kind_count - 1 do
         if String.equal t.kind_names.(i) kind then begin
           idx := i;
           raise_notrace Exit
         end
       done
     with Exit -> ());
    if !idx < 0 then begin
      if t.kind_count = Array.length t.kind_names then begin
        let cap = 2 * t.kind_count in
        let names = Array.make cap "" in
        let msgs = Array.make cap 0 in
        let bytes = Array.make cap 0 in
        Array.blit t.kind_names 0 names 0 t.kind_count;
        Array.blit t.kind_msgs 0 msgs 0 t.kind_count;
        Array.blit t.kind_bytes 0 bytes 0 t.kind_count;
        t.kind_names <- names;
        t.kind_msgs <- msgs;
        t.kind_bytes <- bytes
      end;
      t.kind_names.(t.kind_count) <- kind;
      idx := t.kind_count;
      t.kind_count <- t.kind_count + 1
    end;
    t.last_kind <- kind;
    t.last_kind_idx <- !idx;
    !idx
  end

let link t ~src ~dst ~size =
  if src >= 0 && src <= t.n && dst >= 1 && dst <= t.n then begin
    t.link_msgs.(src).(dst) <- t.link_msgs.(src).(dst) + 1;
    t.link_bytes.(src).(dst) <- t.link_bytes.(src).(dst) + size
  end

(* Broadcast convention (pinned by test/test_replay.ml): a [Net_send] with
   [dst = 0] models [copies] unicast transmissions from [src] — one to each
   of the [copies] lowest-numbered parties other than [src].  The network
   layer always emits broadcasts with [copies = n - 1], so this attributes
   exactly one copy to every other party; the round-robin rule keeps the
   row/column totals right even for foreign traces with partial fanout. *)
let record_send t ~src ~dst ~size ~kind ~copies =
  if dst = 0 then begin
    let sent = ref 0 and d = ref 1 in
    while !sent < copies && !d <= t.n do
      if !d <> src then begin
        link t ~src ~dst:!d ~size;
        incr sent
      end;
      incr d
    done
  end
  else link t ~src ~dst ~size;
  let i = kind_index t kind in
  t.kind_msgs.(i) <- t.kind_msgs.(i) + copies;
  t.kind_bytes.(i) <- t.kind_bytes.(i) + (size * copies)

let row t round =
  match Hashtbl.find_opt t.by_round round with
  | Some r -> r
  | None ->
      let r =
        {
          r_round = round;
          r_entry = None;
          r_propose = None;
          r_notarize = None;
          r_finalize = None;
          r_decided = None;
        }
      in
      Hashtbl.add t.by_round round r;
      r

(* Each column keeps its round's first event. *)
let observe t ~time ev =
  let d = t.dissemination in
  match ev with
  | Trace.Net_send { src; dst; kind; size; copies } ->
      record_send t ~src ~dst ~size ~kind ~copies
  | Trace.Round_entry { round; _ } ->
      let r = row t round in
      if Option.is_none r.r_entry then r.r_entry <- Some time
  | Trace.Propose { round; _ } ->
      let r = row t round in
      if Option.is_none r.r_propose then r.r_propose <- Some time
  | Trace.Notarize { round; _ } ->
      let r = row t round in
      if Option.is_none r.r_notarize then r.r_notarize <- Some time
  | Trace.Finalize { round; _ } ->
      let r = row t round in
      if Option.is_none r.r_finalize then r.r_finalize <- Some time
  | Trace.Block_decided { round; _ } ->
      let r = row t round in
      if Option.is_none r.r_decided then r.r_decided <- Some time;
      t.finalized_blocks <- t.finalized_blocks + 1;
      t.finalization_log <- (round, time) :: t.finalization_log;
      Option.iter
        (fun t0 ->
          t.latencies <- (time -. t0) :: t.latencies;
          t.latencies_sorted <- None)
        r.r_propose
  | Trace.Gossip_publish _ -> d.gossip_publish <- d.gossip_publish + 1
  | Trace.Gossip_request _ -> d.gossip_request <- d.gossip_request + 1
  | Trace.Gossip_acquire _ -> d.gossip_acquire <- d.gossip_acquire + 1
  | Trace.Rbc_fragment _ -> d.rbc_fragments <- d.rbc_fragments + 1
  | Trace.Rbc_echo _ -> d.rbc_echoes <- d.rbc_echoes + 1
  | Trace.Rbc_reconstruct _ -> d.rbc_reconstructs <- d.rbc_reconstructs + 1
  | Trace.Rbc_inconsistent _ -> d.rbc_inconsistent <- d.rbc_inconsistent + 1
  | Trace.Run_start _ | Trace.Run_end _ | Trace.Engine_dispatch _
  | Trace.Net_deliver _ | Trace.Net_hold _ | Trace.Beacon_share _
  | Trace.Commit _ | Trace.Protocol_error _ | Trace.Monitor_violation _
  | Trace.Monitor_stall _ | Trace.Monitor_clear _ | Trace.Fault_drop _
  | Trace.Fault_duplicate _ | Trace.Fault_reorder _ | Trace.Fault_link_down _
  | Trace.Fault_crash _ | Trace.Fault_recover _ | Trace.Adv_corrupt _
  | Trace.Adv_equivocate _ | Trace.Adv_withhold _ | Trace.Adv_censor _
  | Trace.Adv_delay _ | Trace.Adv_straggle _ | Trace.Resync_summary _
  | Trace.Resync_request _ | Trace.Resync_reply _ | Trace.Prof_span _
  | Trace.Prof_counter _ ->
      ()

let attach t trace = Trace.subscribe ~all:false trace (observe t)

(* --- queries ----------------------------------------------------------- *)

let sum = Array.fold_left ( + ) 0
let total_msgs t = sum (Array.map sum t.link_msgs)
let total_bytes t = sum (Array.map sum t.link_bytes)

let max_bytes_per_party t =
  Array.fold_left (fun m row -> max m (sum row)) 0 t.link_bytes

let find_kind t kind =
  let idx = ref (-1) in
  (try
     for i = 0 to t.kind_count - 1 do
       if String.equal t.kind_names.(i) kind then begin
         idx := i;
         raise_notrace Exit
       end
     done
   with Exit -> ());
  !idx

let msgs_of_kind t kind =
  let i = find_kind t kind in
  if i < 0 then 0 else t.kind_msgs.(i)

let bytes_of_kind t kind =
  let i = find_kind t kind in
  if i < 0 then 0 else t.kind_bytes.(i)

let kinds t =
  let rec collect i acc =
    if i < 0 then acc
    else
      collect (i - 1)
        ((t.kind_names.(i), t.kind_msgs.(i), t.kind_bytes.(i)) :: acc)
  in
  collect (t.kind_count - 1) []
  |> List.sort (fun (ka, _, _) (kb, _, _) -> String.compare ka kb)

let link_msgs t = Array.map Array.copy t.link_msgs
let link_bytes t = Array.map Array.copy t.link_bytes

let rounds t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.by_round []
  |> List.sort (fun a b -> Int.compare a.r_round b.r_round)

let finalized_blocks t = t.finalized_blocks
let finalizations t = List.rev t.finalization_log
let latencies t = List.rev t.latencies
let dissemination t = t.dissemination

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* [nan]s are dropped before sorting (the polymorphic [compare] mis-sorts
   them, and they would poison any rank they landed on). *)
let sorted_samples l =
  let a =
    Array.of_list (List.filter (fun x -> not (Float.is_nan x)) l)
  in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile over an already-sorted sample array. *)
let percentile_of_sorted p a =
  let len = Array.length a in
  if len = 0 then nan
  else
    let idx = int_of_float (ceil (p /. 100. *. float_of_int len)) - 1 in
    a.(max 0 (min (len - 1) idx))

let percentile p l = percentile_of_sorted p (sorted_samples l)

(* The run's latency distribution, sorted once and memoized; each new
   latency invalidates the view, so repeated percentile queries over a
   finished (or quiescent) run are O(1) after the first. *)
let latency_percentile t p =
  let a =
    match t.latencies_sorted with
    | Some a -> a
    | None ->
        let a = sorted_samples t.latencies in
        t.latencies_sorted <- Some a;
        a
  in
  percentile_of_sorted p a

let mean_latency t = mean t.latencies

let blocks_per_second t ~window =
  if window <= 0. then nan else float_of_int t.finalized_blocks /. window

let mean_bytes_per_party_per_second t ~window =
  if window <= 0. || t.n = 0 then nan
  else float_of_int (total_bytes t) /. float_of_int t.n /. window
