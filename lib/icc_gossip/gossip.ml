(* Peer-to-peer gossip sub-layer (paper §1 and [17]), the dissemination
   substrate of Protocol ICC1.

   Artifacts travel over a bounded-degree peer graph:
     - large artifacts (block proposals) use advert -> request -> deliver,
       so each node transmits a block to at most [fanout] peers instead of
       the proposer unicasting it to all n-1 — this is what relieves the
       leader bottleneck;
     - small artifacts (signature shares, certificates, beacon shares) are
       flooded: pushed to all peers, re-pushed on first receipt.

   The known/requested sets are per party: one table per party id, so the
   state remains logically distributed and the per-hop dedup check hashes
   a short artifact id instead of allocating a (party, id) tuple key. *)

type artifact_id = string

type wire =
  | Advert of { id : artifact_id }
  | Request of { id : artifact_id }
  | Deliver of { id : artifact_id; msg : Icc_core.Message.t }
  | Push of { id : artifact_id; msg : Icc_core.Message.t }

let advert_wire_size = 48
let request_wire_size = 48
let header_wire_size = 16

type t = {
  n : int;
  fanout : int;
  engine : Icc_sim.Engine.t;
  trace : Icc_sim.Trace.t;
  net : wire Icc_sim.Network.t;
  peers : int list array; (* 1-based; peers.(0) unused *)
  known : (artifact_id, unit) Hashtbl.t array; (* per party; index 0 unused *)
  requested : (artifact_id, unit) Hashtbl.t array;
  store : (artifact_id, Icc_core.Message.t) Hashtbl.t array;
  is_active : int -> bool;
  deliver_up : dst:int -> Icc_core.Message.t -> unit;
}

(* A connected random graph: ring + [fanout - 2] random chords per node,
   symmetrised. *)
let build_peer_graph rng ~n ~fanout =
  let adj = Array.make (n + 1) [] in
  let add a b =
    if a <> b && not (List.mem b adj.(a)) then begin
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b)
    end
  in
  for i = 1 to n do
    add i ((i mod n) + 1)
  done;
  for i = 1 to n do
    for _ = 1 to max 0 (fanout - 2) do
      add i (1 + Icc_sim.Rng.int rng n)
    done
  done;
  adj

let artifact_id_of (msg : Icc_core.Message.t) =
  match msg with
  | Icc_core.Message.Proposal p ->
      let b = p.Icc_core.Message.p_block in
      Printf.sprintf "prop|%d|%s" b.Icc_core.Block.round
        (Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b))
  | Icc_core.Message.Notarization_share s ->
      Printf.sprintf "ns|%d|%s|%d" s.Icc_core.Types.s_round
        (Icc_crypto.Sha256.to_hex s.Icc_core.Types.s_block_hash)
        s.Icc_core.Types.s_share.Icc_crypto.Multisig.signer
  | Icc_core.Message.Notarization c ->
      Printf.sprintf "nz|%d|%s" c.Icc_core.Types.c_round
        (Icc_crypto.Sha256.to_hex c.Icc_core.Types.c_block_hash)
  | Icc_core.Message.Finalization_share s ->
      Printf.sprintf "fs|%d|%s|%d" s.Icc_core.Types.s_round
        (Icc_crypto.Sha256.to_hex s.Icc_core.Types.s_block_hash)
        s.Icc_core.Types.s_share.Icc_crypto.Multisig.signer
  | Icc_core.Message.Finalization c ->
      Printf.sprintf "fz|%d|%s" c.Icc_core.Types.c_round
        (Icc_crypto.Sha256.to_hex c.Icc_core.Types.c_block_hash)
  | Icc_core.Message.Beacon_share { b_round; b_signer; _ } ->
      Printf.sprintf "bs|%d|%d" b_round b_signer
  | Icc_core.Message.Pool_summary { ps_party; ps_round; ps_kmax } ->
      Printf.sprintf "sum|%d|%d|%d" ps_party ps_round ps_kmax
  | Icc_core.Message.Pool_request { pr_party; pr_from; pr_upto } ->
      Printf.sprintf "req|%d|%d|%d" pr_party pr_from pr_upto

let is_large = function
  | Icc_core.Message.Proposal _ -> true
  | Icc_core.Message.Notarization_share _ | Icc_core.Message.Notarization _
  | Icc_core.Message.Finalization_share _ | Icc_core.Message.Finalization _
  | Icc_core.Message.Beacon_share _ | Icc_core.Message.Pool_summary _
  | Icc_core.Message.Pool_request _ ->
      false

let wire_size t = function
  | Advert _ -> advert_wire_size
  | Request _ -> request_wire_size
  | Deliver { msg; _ } | Push { msg; _ } ->
      header_wire_size + Icc_core.Message.wire_size ~n:t.n msg

let wire_kind = function
  | Advert _ -> "gossip-advert"
  | Request _ -> "gossip-request"
  | Deliver _ -> "gossip-deliver"
  | Push _ -> "gossip-push"

let send t ~src ~dst w =
  Icc_sim.Network.unicast t.net ~src ~dst ~size:(wire_size t w)
    ~kind:(wire_kind w) w

let mark_known t party id = Hashtbl.replace t.known.(party) id ()
let knows t party id = Hashtbl.mem t.known.(party) id

(* Gossip-layer events carry the artifact id; they are detail-level, so an
   unobserved run never reaches the emit. *)
let emit_detail t ev =
  if Icc_sim.Trace.detailed t.trace then
    Icc_sim.Trace.emit t.trace ~time:(Icc_sim.Engine.now t.engine) (ev ())

(* First acquisition of an artifact at [party]: hand it to the protocol
   layer and propagate. *)
let acquire t ~party ~from_peer id msg =
  if not (knows t party id) then begin
    mark_known t party id;
    Hashtbl.replace t.store.(party) id msg;
    emit_detail t (fun () ->
        Icc_sim.Trace.Gossip_acquire { party; peer = from_peer; artifact = id });
    t.deliver_up ~dst:party msg;
    if t.is_active party then
      List.iter
        (fun peer ->
          if peer <> from_peer then
            if is_large msg then send t ~src:party ~dst:peer (Advert { id })
            else send t ~src:party ~dst:peer (Push { id; msg }))
        t.peers.(party)
  end

let on_wire t ~dst ~src w =
  Icc_obs.Profile.span "gossip.relay" @@ fun () ->
  if t.is_active dst then
    match w with
    | Advert { id } ->
        if (not (knows t dst id)) && not (Hashtbl.mem t.requested.(dst) id)
        then begin
          Hashtbl.replace t.requested.(dst) id ();
          emit_detail t (fun () ->
              Icc_sim.Trace.Gossip_request { party = dst; peer = src; artifact = id });
          send t ~src:dst ~dst:src (Request { id })
        end
    | Request { id } -> (
        match Hashtbl.find_opt t.store.(dst) id with
        | Some msg -> send t ~src:dst ~dst:src (Deliver { id; msg })
        | None -> ())
    | Deliver { id; msg } | Push { id; msg } ->
        (* Resync control is point-to-point and intentionally repeatable:
           it must never enter the known/store dedup tables, or repeated
           identical summaries would be swallowed. *)
        if Icc_core.Message.is_resync msg then t.deliver_up ~dst msg
        else acquire t ~party:dst ~from_peer:src id msg

let create (ctx : Icc_core.Runner.transport_ctx) ~fanout =
  let net = Icc_core.Runner.network ctx in
  let n = ctx.tr_n in
  let t =
    {
      n;
      fanout;
      engine = ctx.tr_engine;
      trace = ctx.tr_trace;
      net;
      peers = build_peer_graph ctx.tr_rng ~n ~fanout;
      known = Array.init (n + 1) (fun _ -> Hashtbl.create 64);
      requested = Array.init (n + 1) (fun _ -> Hashtbl.create 64);
      store = Array.init (n + 1) (fun _ -> Hashtbl.create 64);
      is_active = ctx.tr_is_active;
      deliver_up = ctx.tr_deliver;
    }
  in
  Icc_sim.Network.set_handler net (fun ~dst ~src w -> on_wire t ~dst ~src w);
  t

(* The protocol's "broadcast": publish into the gossip network.  The
   publisher delivers to itself immediately (its pool holds its own
   messages). *)
let publish t ~src msg =
  Icc_obs.Profile.span "gossip.publish" @@ fun () ->
  let id = artifact_id_of msg in
  if not (knows t src id) then begin
    mark_known t src id;
    Hashtbl.replace t.store.(src) id msg;
    emit_detail t (fun () ->
        Icc_sim.Trace.Gossip_publish { party = src; artifact = id });
    t.deliver_up ~dst:src msg;
    List.iter
      (fun peer ->
        if is_large msg then send t ~src ~dst:peer (Advert { id })
        else send t ~src ~dst:peer (Push { id; msg }))
      t.peers.(src)
  end

(* Byzantine split delivery: hand an artifact directly to one party, outside
   the advert/request discipline.  The receiver re-gossips as usual. *)
let inject t ~src ~dst msg =
  let id = artifact_id_of msg in
  if Icc_core.Message.is_resync msg then
    (* Point-to-point resync control: skip the dedup tables on the send
       side too (see on_wire) so every retransmission actually travels. *)
    send t ~src ~dst (Deliver { id; msg })
  else if dst = src then publish t ~src msg
  else begin
    (* sender remembers its own artifact *)
    mark_known t src id;
    Hashtbl.replace t.store.(src) id msg;
    send t ~src ~dst (Deliver { id; msg })
  end

let peers t party = t.peers.(party)
