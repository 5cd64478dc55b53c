(* PBFT (Castro–Liskov [13]) on the shared simulator substrate: the
   baseline the paper's related-work comparison is anchored on.

   Implemented: the three-phase happy path (pre-prepare, prepare, commit
   with quorums 2t and n-t), in-order execution, and a view-change
   subprotocol carrying prepared certificates (simplified: no checkpoints
   or watermark garbage collection — the log is unbounded, as in the ICC
   pools).  Without a stable checkpoint below which slots are settled, a
   View_change carries every prepared or executed slot of the log, so its
   size grows with the run.  The leader of view v is replica
   ((v-1) mod n) + 1.

   Known baseline characteristics this reproduces: latency 3·delta; the
   leader transmits the full batch to all n-1 replicas (the bottleneck the
   ICC protocols attack); a crashed leader stalls progress for the full
   view-change timeout. *)

type batch = {
  seq : int;
  view : int;
  size : int; (* modeled payload bytes *)
  noop : bool;
}

let digest_of (b : batch) =
  Icc_crypto.Sha256.to_hex
    (Icc_crypto.Sha256.digest_string
       (Printf.sprintf "pbft-batch|%d|%d|%d|%b" b.seq b.view b.size b.noop))

type msg =
  | Pre_prepare of { view : int; batch : batch; digest : string;
                     sig_ : Icc_crypto.Schnorr.signature }
  | Prepare of { view : int; seq : int; digest : string; replica : int;
                 sig_ : Icc_crypto.Schnorr.signature }
  | Commit of { view : int; seq : int; digest : string; replica : int;
                sig_ : Icc_crypto.Schnorr.signature }
  | View_change of { new_view : int; replica : int; max_seq : int;
                     prepared : (int * string * int * int) list;
                     (* seq, digest, view, size *)
                     sig_ : Icc_crypto.Schnorr.signature }
  | New_view of { new_view : int; batches : (batch * string) list;
                  sig_ : Icc_crypto.Schnorr.signature }

let msg_wire_size ~n:_ = function
  | Pre_prepare { batch; _ } -> 48 + batch.size
  | Prepare _ | Commit _ -> 112
  | View_change { prepared; _ } -> 112 + (48 * List.length prepared)
  | New_view { batches; _ } ->
      112 + List.fold_left (fun acc (b, _) -> acc + 48 + b.size) 0 batches

let msg_kind = function
  | Pre_prepare _ -> "pre-prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"

(* Signed-text encodings. *)
let pp_text ~view ~digest = Printf.sprintf "pbft-pp|%d|%s" view digest
let prepare_text ~view ~seq ~digest = Printf.sprintf "pbft-p|%d|%d|%s" view seq digest
let commit_text ~view ~seq ~digest = Printf.sprintf "pbft-c|%d|%d|%s" view seq digest
let vc_text ~new_view ~replica ~max_seq =
  Printf.sprintf "pbft-vc|%d|%d|%d" new_view replica max_seq
let nv_text ~new_view ~count = Printf.sprintf "pbft-nv|%d|%d" new_view count

type entry = {
  mutable batch : batch option;
  mutable digest : string;
  mutable pp_view : int; (* view of the accepted pre-prepare; -1 = none *)
  prepares : (int * string, (int, unit) Hashtbl.t) Hashtbl.t;
      (* (view, digest) -> voting replicas; votes arriving before the
         pre-prepare are buffered under their own key *)
  commits : (int * string, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable prepared : bool; (* for the current (pp_view, digest) binding *)
  mutable executed : bool;
}

let votes_for tbl key =
  match Hashtbl.find_opt tbl key with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add tbl key h;
      h

type replica = {
  id : int;
  n : int;
  t : int;
  auth : Icc_crypto.Schnorr.secret_key;
  auth_pub : Icc_crypto.Schnorr.public_key array;
  mutable crashed : bool;
  mutable view : int;
  mutable next_seq : int; (* leader: next sequence to assign *)
  mutable next_exec : int;
  mutable max_seq_seen : int;
  log : (int, entry) Hashtbl.t;
  vc_votes : (int, (int, (int * string * int * int) list) Hashtbl.t) Hashtbl.t;
  mutable last_progress : float;
  mutable executed_digests : string list; (* newest first *)
}

type t = {
  engine : Icc_sim.Engine.t;
  net : msg Icc_sim.Network.t;
  replicas : replica array;
  scenario : Harness.scenario;
  tracker : Harness.tracker;
  honest : int list;
}

let leader_of ~n view = ((view - 1) mod n) + 1
let quorum r = r.n - r.t (* n - t = 2t + 1 when n = 3t + 1 *)

let entry_of r seq =
  match Hashtbl.find_opt r.log seq with
  | Some e -> e
  | None ->
      let e =
        {
          batch = None;
          digest = "";
          pp_view = -1;
          prepares = Hashtbl.create 8;
          commits = Hashtbl.create 8;
          prepared = false;
          executed = false;
        }
      in
      Hashtbl.add r.log seq e;
      e

let broadcast t ~src msg =
  Icc_sim.Network.broadcast t.net ~src ~size:(msg_wire_size ~n:t.scenario.Harness.n msg)
    ~kind:(msg_kind msg) msg

let now t = Icc_sim.Engine.now t.engine

(* Leader: assign sequence numbers to fresh batches while the pipeline
   window allows. *)
let rec try_propose t r =
  if (not r.crashed) && leader_of ~n:r.n r.view = r.id then begin
    let in_flight = r.next_seq - r.next_exec in
    if in_flight < t.scenario.Harness.pipeline_window then begin
      let batch =
        { seq = r.next_seq; view = r.view; size = t.scenario.Harness.block_size;
          noop = false }
      in
      r.next_seq <- r.next_seq + 1;
      let digest = digest_of batch in
      Harness.note_proposal t.tracker ~digest ~time:(now t);
      let sig_ =
        Icc_crypto.Schnorr.sign r.auth (pp_text ~view:r.view ~digest)
      in
      broadcast t ~src:r.id (Pre_prepare { view = r.view; batch; digest; sig_ });
      try_propose t r
    end
  end

and execute_ready t r =
  let rec go () =
    let e = Hashtbl.find_opt r.log r.next_exec in
    match e with
    | Some e
      when (not e.executed)
           && e.batch <> None
           && Hashtbl.length (votes_for e.commits (e.pp_view, e.digest))
              >= quorum r ->
        e.executed <- true;
        r.executed_digests <- e.digest :: r.executed_digests;
        r.last_progress <- now t;
        if List.mem r.id t.honest then
          Harness.note_execution t.tracker ~party:r.id ~digest:e.digest
            ~time:(now t);
        r.next_exec <- r.next_exec + 1;
        go ()
    | _ -> ()
  in
  go ();
  try_propose t r

(* Accept a pre-prepare (from a leader's broadcast or a new-view message). *)
and accept_preprepare t r ~view ~(batch : batch) ~digest =
  let e = entry_of r batch.seq in
  if batch.seq > r.max_seq_seen then r.max_seq_seen <- batch.seq;
  if batch.seq >= r.next_seq then r.next_seq <- batch.seq + 1;
  (* Within one view a slot binds to at most one digest; a later view may
     rebind it (new-view re-proposals). *)
  if view > e.pp_view || (view = e.pp_view && String.equal digest e.digest)
  then begin
    if view > e.pp_view then e.prepared <- false;
    e.pp_view <- view;
    e.batch <- Some batch;
    e.digest <- digest;
    (* Backups broadcast Prepare; the primary's pre-prepare stands in for
       its prepare (canonical PBFT), giving the 3-delta commit latency. *)
    if leader_of ~n:r.n view <> r.id then begin
      let sig_ =
        Icc_crypto.Schnorr.sign r.auth
          (prepare_text ~view ~seq:batch.seq ~digest)
      in
      broadcast t ~src:r.id
        (Prepare { view; seq = batch.seq; digest; replica = r.id; sig_ })
    end;
    check_prepared t r e ~view ~seq:batch.seq
  end

and check_prepared t r (e : entry) ~view ~seq =
  if
    (not e.prepared) && e.pp_view = view && e.batch <> None
    && Hashtbl.length (votes_for e.prepares (view, e.digest)) >= 2 * r.t
  then begin
    e.prepared <- true;
    let sig_ =
      Icc_crypto.Schnorr.sign r.auth (commit_text ~view ~seq ~digest:e.digest)
    in
    broadcast t ~src:r.id
      (Commit { view; seq; digest = e.digest; replica = r.id; sig_ })
  end

(* View change: triggered by the progress timer. *)
and start_view_change t r ~new_view =
  if new_view > r.view then begin
    r.view <- new_view;
    (* Every prepared slot, executed ones included: a replica that left
       out a slot it had executed let the new primary fill it with a
       no-op, which replicas that had not yet executed it then executed
       instead (a fork).  An executed slot is reported even when a later
       view's re-proposal has reset its [prepared] flag.  Canonical
       ascending-seq order: this list is emitted on the wire, so log
       bucket order must not leak (D2). *)
    let prepared =
      Hashtbl.fold
        (fun seq (e : entry) acc ->
          if e.prepared || e.executed then
            match e.batch with
            | Some b -> (seq, e.digest, e.pp_view, b.size) :: acc
            | None -> acc
          else acc)
        r.log []
      |> List.sort (fun (s1, _, _, _) (s2, _, _, _) -> Int.compare s1 s2)
    in
    let sig_ =
      Icc_crypto.Schnorr.sign r.auth
        (vc_text ~new_view ~replica:r.id ~max_seq:r.max_seq_seen)
    in
    broadcast t ~src:r.id
      (View_change { new_view; replica = r.id; max_seq = r.max_seq_seen; prepared; sig_ })
  end

and on_view_change t r ~new_view ~replica ~max_seq ~prepared =
  if new_view >= r.view then begin
    let per_view =
      match Hashtbl.find_opt r.vc_votes new_view with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 8 in
          Hashtbl.add r.vc_votes new_view h;
          h
    in
    if not (Hashtbl.mem per_view replica) then begin
      Hashtbl.replace per_view replica prepared;
      if max_seq > r.max_seq_seen then r.max_seq_seen <- max_seq;
      (* Join a view change once t+1 replicas support it. *)
      if Hashtbl.length per_view >= r.t + 1 && new_view > r.view then
        start_view_change t r ~new_view;
      (* The new leader installs the view at n-t support. *)
      if
        Hashtbl.length per_view >= quorum r
        && leader_of ~n:r.n new_view = r.id
        && r.view <= new_view
      then begin
        r.view <- new_view;
        (* Re-propose prepared batches (highest pre-prepare view wins per
           slot) and fill unprepared gaps with no-ops. *)
        let best : (int, string * int * int) Hashtbl.t = Hashtbl.create 16 in
        (* visit votes in ascending replica order: a Byzantine pair of
           equal-view, different-digest claims would otherwise be resolved
           by bucket order (D2) *)
        Hashtbl.fold (fun replica prep acc -> (replica, prep) :: acc) per_view []
        |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
        |> List.iter (fun (_, prep) ->
               List.iter
                 (fun (seq, digest, view, size) ->
                   match Hashtbl.find_opt best seq with
                   | Some (_, v, _) when v >= view -> ()
                   | _ -> Hashtbl.replace best seq (digest, view, size))
                 prep);
        let batches = ref [] in
        for seq = r.max_seq_seen downto r.next_exec do
          let batch, digest =
            match Hashtbl.find_opt best seq with
            | Some (digest, _, size) ->
                ({ seq; view = new_view; size; noop = false }, digest)
            | None ->
                let b = { seq; view = new_view; size = 0; noop = true } in
                (b, digest_of b)
          in
          batches := (batch, digest) :: !batches
        done;
        let sig_ =
          Icc_crypto.Schnorr.sign r.auth
            (nv_text ~new_view ~count:(List.length !batches))
        in
        broadcast t ~src:r.id (New_view { new_view; batches = !batches; sig_ });
        r.next_seq <- max r.next_seq (r.max_seq_seen + 1);
        r.last_progress <- now t;
        try_propose t r
      end
    end
  end

let on_message t r msg =
  if not r.crashed then
    match msg with
    | Pre_prepare { view; batch; digest; sig_ } ->
        let src = leader_of ~n:r.n view in
        if
          view = r.view
          && String.equal digest (digest_of batch)
          && Icc_crypto.Schnorr.verify r.auth_pub.(src - 1)
               (pp_text ~view ~digest) sig_
        then accept_preprepare t r ~view ~batch ~digest
    | Prepare { view; seq; digest; replica; sig_ } ->
        if
          Icc_crypto.Schnorr.verify r.auth_pub.(replica - 1)
            (prepare_text ~view ~seq ~digest) sig_
        then begin
          let e = entry_of r seq in
          Hashtbl.replace (votes_for e.prepares (view, digest)) replica ();
          check_prepared t r e ~view ~seq
        end
    | Commit { view; seq; digest; replica; sig_ } ->
        if
          Icc_crypto.Schnorr.verify r.auth_pub.(replica - 1)
            (commit_text ~view ~seq ~digest) sig_
        then begin
          let e = entry_of r seq in
          Hashtbl.replace (votes_for e.commits (view, digest)) replica ();
          execute_ready t r
        end
    | View_change { new_view; replica; max_seq; prepared; sig_ } ->
        if
          Icc_crypto.Schnorr.verify r.auth_pub.(replica - 1)
            (vc_text ~new_view ~replica ~max_seq) sig_
        then on_view_change t r ~new_view ~replica ~max_seq ~prepared
    | New_view { new_view; batches; sig_ } ->
        let src = leader_of ~n:r.n new_view in
        if
          new_view >= r.view
          && Icc_crypto.Schnorr.verify r.auth_pub.(src - 1)
               (nv_text ~new_view ~count:(List.length batches)) sig_
        then begin
          r.view <- new_view;
          r.last_progress <- now t;
          List.iter
            (fun (batch, digest) ->
              accept_preprepare t r ~view:new_view ~batch ~digest)
            batches
        end

let run (scenario : Harness.scenario) : Harness.result =
  let n = scenario.Harness.n in
  let rng = Icc_sim.Rng.create scenario.Harness.seed in
  let key_rng = Icc_sim.Rng.split rng in
  let net_rng = Icc_sim.Rng.split rng in
  let keys = Array.init n (fun _ -> Icc_crypto.Schnorr.keygen (fun () -> Icc_sim.Rng.bits61 key_rng)) in
  let auth_pub = Array.map snd keys in
  let env = Icc_sim.Transport.env ?trace:scenario.Harness.trace ~n () in
  let engine = env.Icc_sim.Transport.engine in
  let metrics = env.Icc_sim.Transport.metrics in
  let trace = env.Icc_sim.Transport.trace in
  let monitor = Harness.attach_monitor scenario env in
  Icc_sim.Trace.emit trace ~time:0.
    (Icc_sim.Trace.Run_start { n; label = "pbft" });
  let { Icc_sim.Transport.delay_model; fault; adversary } =
    Icc_sim.Transport.links env ~rng ~net_rng
      ~classify:Harness.baseline_classify ~parties:(Harness.party_ids scenario)
      ~nemesis:scenario.Harness.nemesis ~adversary:scenario.Harness.adversary
      scenario.Harness.delay
  in
  let net =
    Icc_sim.Network.create engine ~n ~trace ~delay_model ?fault ?adversary ()
  in
  let adv_corrupt = Harness.adversary_corrupt scenario in
  let honest =
    List.init n (fun i -> i + 1)
    |> List.filter (fun id -> not (List.mem id scenario.Harness.crashed))
    |> List.filter (fun id -> not (List.mem_assoc id scenario.Harness.kill_at))
    |> List.filter (fun id -> not (List.mem id adv_corrupt))
  in
  let tracker = Harness.tracker ~n_honest:(List.length honest) ~trace in
  let replicas =
    Array.init n (fun i ->
        {
          id = i + 1;
          n;
          t = scenario.Harness.t;
          auth = fst keys.(i);
          auth_pub;
          crashed = List.mem (i + 1) scenario.Harness.crashed;
          view = 1;
          next_seq = 1;
          next_exec = 1;
          max_seq_seen = 0;
          log = Hashtbl.create 64;
          vc_votes = Hashtbl.create 8;
          last_progress = 0.;
          executed_digests = [];
        })
  in
  let t = { engine; net; replicas; scenario; tracker; honest } in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ msg ->
      on_message t replicas.(dst - 1) msg);
  List.iter
    (fun (id, time) ->
      Icc_sim.Engine.schedule_at engine ~time (fun () ->
          replicas.(id - 1).crashed <- true))
    scenario.Harness.kill_at;
  (* Progress timers drive view changes. *)
  let rec watchdog id time =
    if time <= scenario.Harness.duration then
      Icc_sim.Engine.schedule_at engine ~time (fun () ->
          let r = replicas.(id - 1) in
          if
            (not r.crashed)
            && Icc_sim.Engine.now engine -. r.last_progress
               > scenario.Harness.timeout
          then begin
            r.last_progress <- Icc_sim.Engine.now engine;
            start_view_change t r ~new_view:(r.view + 1)
          end;
          watchdog id (time +. (scenario.Harness.timeout /. 2.)))
  in
  for id = 1 to n do
    watchdog id (scenario.Harness.timeout *. (1. +. (0.01 *. float_of_int id)))
  done;
  (* Kick off view 1. *)
  Array.iter (fun r -> try_propose t r) replicas;
  Icc_sim.Engine.run ~until:scenario.Harness.duration engine;
  let elapsed = Icc_sim.Engine.now engine in
  Icc_sim.Trace.emit trace ~time:elapsed
    (Icc_sim.Trace.Run_end { label = "pbft" });
  let outputs =
    List.map
      (fun id -> (id, List.rev replicas.(id - 1).executed_digests))
      honest
  in
  {
    Harness.metrics;
    monitor;
    duration = elapsed;
    blocks_committed = tracker.Harness.decided;
    blocks_per_s = float_of_int tracker.Harness.decided /. elapsed;
    mean_latency = Icc_sim.Metrics.mean tracker.Harness.latencies;
    safety_ok = Harness.prefix_consistent outputs;
    outputs;
  }
