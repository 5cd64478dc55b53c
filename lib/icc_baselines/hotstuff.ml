(* Chained (pipelined) HotStuff [36] on the shared simulator substrate.

   One view per block: the leader of view v proposes a node justified by the
   highest QC it knows; replicas vote (multisignature shares) to the leader
   of view v+1, who aggregates the QC and proposes the next node.  A node
   commits when it heads a three-chain of consecutive views (the chained
   commit rule); the safeNode predicate uses the two-chain lock.

   Known baseline characteristics this reproduces: reciprocal throughput
   2·delta (one block per view, a view is propose + vote), commit latency
   ≈ 6–7·delta (three further chained views), linear happy-path message
   complexity but leader-borne block dissemination, and a pacemaker that
   stalls for the view timeout when a leader has crashed. *)

type node = {
  view : int;
  parent : string; (* hash of parent node *)
  size : int; (* modeled payload bytes *)
  proposer : int;
}

let hash_of (nd : node) =
  Icc_crypto.Sha256.to_hex
    (Icc_crypto.Sha256.digest_string
       (Printf.sprintf "hs|%d|%s|%d|%d" nd.view nd.parent nd.size nd.proposer))

let genesis_hash = "hs-genesis"

type qc =
  | Genesis_qc
  | Qc of { qc_view : int; qc_hash : string; agg : Icc_crypto.Multisig.signature }

let qc_view = function Genesis_qc -> 0 | Qc { qc_view; _ } -> qc_view
let qc_hash = function Genesis_qc -> genesis_hash | Qc { qc_hash; _ } -> qc_hash

let vote_text ~view ~hash = Printf.sprintf "hs-vote|%d|%s" view hash
let proposal_text ~view ~hash = Printf.sprintf "hs-prop|%d|%s" view hash
let newview_text ~view ~replica = Printf.sprintf "hs-nv|%d|%d" view replica

type msg =
  | Proposal of { node : node; justify : qc; sig_ : Icc_crypto.Schnorr.signature }
  | Vote of { view : int; hash : string; share : Icc_crypto.Multisig.share }
  | New_view of { view : int; justify : qc; replica : int;
                  sig_ : Icc_crypto.Schnorr.signature }

let msg_wire_size ~n = function
  | Proposal { node; _ } -> 24 + node.size + 64 + 48 + ((n + 7) / 8)
  | Vote _ -> 92
  | New_view _ -> 64 + 48 + ((n + 7) / 8)

let msg_kind = function
  | Proposal _ -> "hs-proposal"
  | Vote _ -> "hs-vote"
  | New_view _ -> "hs-new-view"

type replica = {
  id : int;
  n : int;
  t : int;
  auth : Icc_crypto.Schnorr.secret_key;
  auth_pub : Icc_crypto.Schnorr.public_key array;
  notary : Icc_crypto.Multisig.params;
  notary_key : Icc_crypto.Multisig.secret;
  mutable crashed : bool;
  mutable view : int;
  mutable voted_view : int;
  mutable locked : qc;
  mutable high : qc;
  nodes : (string, node) Hashtbl.t;
  justifies : (string, qc) Hashtbl.t; (* node hash -> QC it carried *)
  votes : (int * string, Icc_crypto.Multisig.share list ref) Hashtbl.t;
  nv_votes : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable proposed_view : int; (* last view this replica proposed in *)
  executed : (string, unit) Hashtbl.t;
  mutable executed_order : string list; (* newest first *)
  mutable last_progress : float;
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
let quorum r = r.n - r.t

let now t = Icc_sim.Engine.now t.engine

let broadcast t ~src msg =
  Icc_sim.Network.broadcast t.net ~src
    ~size:(msg_wire_size ~n:t.scenario.Harness.n msg)
    ~kind:(msg_kind msg) msg

let unicast t ~src ~dst msg =
  Icc_sim.Network.unicast t.net ~src ~dst
    ~size:(msg_wire_size ~n:t.scenario.Harness.n msg)
    ~kind:(msg_kind msg) msg

let qc_valid r = function
  | Genesis_qc -> true
  | Qc { qc_view; qc_hash; agg } ->
      Icc_crypto.Multisig.verify r.notary (vote_text ~view:qc_view ~hash:qc_hash) agg

(* Does the branch of [h] contain [ancestor]? *)
let extends r ~h ~ancestor =
  let rec walk h fuel =
    fuel > 0
    && (String.equal h ancestor
       ||
       match Hashtbl.find_opt r.nodes h with
       | Some nd -> walk nd.parent (fuel - 1)
       | None -> false)
  in
  String.equal h ancestor || walk h 10_000

let rec propose t r ~view =
  if
    (not r.crashed) && leader_of ~n:r.n view = r.id && r.proposed_view < view
    && r.view = view
  then begin
    r.proposed_view <- view;
    let node =
      { view; parent = qc_hash r.high; size = t.scenario.Harness.block_size;
        proposer = r.id }
    in
    let h = hash_of node in
    Harness.note_proposal t.tracker ~digest:h ~time:(now t);
    let sig_ = Icc_crypto.Schnorr.sign r.auth (proposal_text ~view ~hash:h) in
    broadcast t ~src:r.id (Proposal { node; justify = r.high; sig_ })
  end

and enter_view t r view =
  (* Advancing views does not by itself trigger a proposal: the leader of
     view v proposes only once it holds a QC for v-1 (vote aggregation,
     update_high) or a New_view quorum — proposing on entry would fork from
     a stale high-QC. *)
  if view > r.view then begin
    r.view <- view;
    r.last_progress <- now t
  end

and update_high t r (q : qc) =
  if qc_view q > qc_view r.high then r.high <- q;
  (* Seeing a QC for view v moves us to view v+1; if we already advanced
     there by voting, the QC is still our cue to propose. *)
  let next = qc_view q + 1 in
  enter_view t r next;
  if r.view = next then propose t r ~view:next

(* Execute [h] and its unexecuted ancestors, oldest first.  If an ancestor
   was never delivered (lossy links, straggling sender) the whole chain
   stays unexecuted: executing across the gap would fork this replica's
   executed prefix.  Real HotStuff fetches the missing node first; the
   model simply waits, trading liveness for safety. *)
and execute t r h =
  let rec collect h acc =
    if String.equal h genesis_hash || Hashtbl.mem r.executed h then Some acc
    else
      match Hashtbl.find_opt r.nodes h with
      | Some nd -> collect nd.parent (h :: acc)
      | None -> None
  in
  match collect h [] with
  | None -> ()
  | Some chain ->
      List.iter
        (fun h ->
          Hashtbl.replace r.executed h ();
          r.executed_order <- h :: r.executed_order;
          if List.mem r.id t.honest then
            Harness.note_execution t.tracker ~party:r.id ~digest:h
              ~time:(now t))
        chain

(* The chained commit rule: a proposal's justify closes a potential
   three-chain b0 <- b1 <- b2 with consecutive views; b0 commits. *)
and try_commit t r (justify : qc) =
  match justify with
  | Genesis_qc -> ()
  | Qc { qc_hash = h2; _ } -> (
      match (Hashtbl.find_opt r.nodes h2, Hashtbl.find_opt r.justifies h2) with
      | Some b2, Some qc1 -> (
          (* two-chain: lock on b1 *)
          if qc_view qc1 > qc_view r.locked then r.locked <- qc1;
          let h1 = qc_hash qc1 in
          match (Hashtbl.find_opt r.nodes h1, Hashtbl.find_opt r.justifies h1) with
          | Some b1, Some qc0 ->
              let h0 = qc_hash qc0 in
              if
                (not (String.equal h0 genesis_hash))
                && b2.view = b1.view + 1
                &&
                match Hashtbl.find_opt r.nodes h0 with
                | Some b0 -> b1.view = b0.view + 1
                | None -> false
              then execute t r h0
          | _ -> ())
      | _ -> ())

and on_message t r msg =
  if not r.crashed then
    match msg with
    | Proposal { node; justify; sig_ } ->
        let h = hash_of node in
        if
          node.proposer = leader_of ~n:r.n node.view
          && Icc_crypto.Schnorr.verify r.auth_pub.(node.proposer - 1)
               (proposal_text ~view:node.view ~hash:h) sig_
          && qc_valid r justify
          && String.equal node.parent (qc_hash justify)
        then begin
          Hashtbl.replace r.nodes h node;
          Hashtbl.replace r.justifies h justify;
          r.last_progress <- now t;
          update_high t r justify;
          try_commit t r justify;
          (* safeNode: extends the locked branch, or carries a newer QC *)
          let safe =
            extends r ~h ~ancestor:(qc_hash r.locked)
            || qc_view justify > qc_view r.locked
          in
          if node.view >= r.view && r.voted_view < node.view && safe then begin
            r.voted_view <- node.view;
            let share =
              Icc_crypto.Multisig.sign_share r.notary r.notary_key
                (vote_text ~view:node.view ~hash:h)
            in
            unicast t ~src:r.id
              ~dst:(leader_of ~n:r.n (node.view + 1))
              (Vote { view = node.view; hash = h; share });
            (* a voting replica moves to the next view *)
            enter_view t r (node.view + 1)
          end
        end
    | Vote { view; hash; share } ->
        if
          leader_of ~n:r.n (view + 1) = r.id
          && Icc_crypto.Multisig.verify_share r.notary
               (vote_text ~view ~hash) share
        then begin
          let key = (view, hash) in
          let l =
            match Hashtbl.find_opt r.votes key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add r.votes key l;
                l
          in
          if
            not
              (List.exists
                 (fun (s : Icc_crypto.Multisig.share) ->
                   s.Icc_crypto.Multisig.signer
                   = share.Icc_crypto.Multisig.signer)
                 !l)
          then begin
            l := share :: !l;
            if List.length !l >= quorum r then
              match
                Icc_crypto.Multisig.combine r.notary (vote_text ~view ~hash) !l
              with
              | Some agg ->
                  update_high t r (Qc { qc_view = view; qc_hash = hash; agg })
              | None -> ()
          end
        end
    | New_view { view; justify; replica; sig_ } ->
        if
          Icc_crypto.Schnorr.verify r.auth_pub.(replica - 1)
            (newview_text ~view ~replica) sig_
          && qc_valid r justify
        then begin
          if qc_view justify > qc_view r.high then r.high <- justify;
          let per_view =
            match Hashtbl.find_opt r.nv_votes view with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 8 in
                Hashtbl.add r.nv_votes view h;
                h
          in
          Hashtbl.replace per_view replica ();
          if Hashtbl.length per_view >= quorum r && leader_of ~n:r.n view = r.id
          then begin
            enter_view t r view;
            propose t r ~view
          end
        end

let run (scenario : Harness.scenario) : Harness.result =
  let n = scenario.Harness.n in
  let rng = Icc_sim.Rng.create scenario.Harness.seed in
  let key_rng = Icc_sim.Rng.split rng in
  let net_rng = Icc_sim.Rng.split rng in
  let bits () = Icc_sim.Rng.bits61 key_rng in
  let keys = Array.init n (fun _ -> Icc_crypto.Schnorr.keygen bits) in
  let auth_pub = Array.map snd keys in
  let notary, notary_secrets =
    Icc_crypto.Multisig.setup ~threshold_h:(n - scenario.Harness.t) ~n bits
  in
  let env = Icc_sim.Transport.env ?trace:scenario.Harness.trace ~n () in
  let engine = env.Icc_sim.Transport.engine in
  let metrics = env.Icc_sim.Transport.metrics in
  let trace = env.Icc_sim.Transport.trace in
  let monitor = Harness.attach_monitor scenario env in
  Icc_sim.Trace.emit trace ~time:0.
    (Icc_sim.Trace.Run_start { n; label = "hotstuff" });
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
          notary;
          notary_key = List.nth notary_secrets i;
          crashed = List.mem (i + 1) scenario.Harness.crashed;
          view = 1;
          voted_view = 0;
          locked = Genesis_qc;
          high = Genesis_qc;
          nodes = Hashtbl.create 64;
          justifies = Hashtbl.create 64;
          votes = Hashtbl.create 64;
          nv_votes = Hashtbl.create 8;
          proposed_view = 0;
          executed = Hashtbl.create 64;
          executed_order = [];
          last_progress = 0.;
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
  (* Pacemaker: on a stalled view, advance and send New_view to its leader. *)
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
            let next = r.view + 1 in
            r.view <- next;
            let sig_ =
              Icc_crypto.Schnorr.sign r.auth (newview_text ~view:next ~replica:r.id)
            in
            unicast t ~src:r.id ~dst:(leader_of ~n:r.n next)
              (New_view { view = next; justify = r.high; replica = r.id; sig_ })
          end;
          watchdog id (time +. (scenario.Harness.timeout /. 2.)))
  in
  for id = 1 to n do
    watchdog id (scenario.Harness.timeout *. (1. +. (0.01 *. float_of_int id)))
  done;
  propose t replicas.(leader_of ~n 1 - 1) ~view:1;
  Icc_sim.Engine.run ~until:scenario.Harness.duration engine;
  let elapsed = Icc_sim.Engine.now engine in
  Icc_sim.Trace.emit trace ~time:elapsed
    (Icc_sim.Trace.Run_end { label = "hotstuff" });
  let outputs =
    List.map (fun id -> (id, List.rev replicas.(id - 1).executed_order)) honest
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
