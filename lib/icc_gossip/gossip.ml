(* Peer-to-peer gossip sub-layer (paper §1 and [17]), the dissemination
   substrate of Protocol ICC1.

   Artifacts travel over a bounded-degree peer graph:
     - large artifacts (block proposals) use advert -> request -> deliver,
       so each node transmits a block to at most [fanout] peers instead of
       the proposer unicasting it to all n-1 — this is what relieves the
       leader bottleneck;
     - small artifacts (signature shares, certificates, beacon shares) are
       flooded: pushed to all peers, re-pushed on first receipt.

   Artifact ids are interned: an artifact's name ([artifact_id_of]) is
   mapped to a dense int once, when it enters the layer through [publish]
   or [inject], and the wire carries only that int.  The per-party state
   is arrays indexed by it — a requested flag and a stored copy, whose
   presence is what the party knows — grown together with the intern
   table.  It stays per party, so logically distributed, and a relay hop
   costs an array read instead of hashing a ~72-byte name.  The trace
   still names artifacts by their strings. *)

type wire =
  | Advert of { id : int }
  | Request of { id : int }
  | Deliver of { id : int; msg : Icc_core.Message.t }
  | Push of { id : int; msg : Icc_core.Message.t }

(* Resync control is never interned (see [inject]). *)
let no_id = -1

let advert_wire_size = 48
let request_wire_size = 48
let header_wire_size = 16

type t = {
  n : int;
  engine : Icc_sim.Engine.t;
  trace : Icc_sim.Trace.t;
  net : wire Icc_sim.Network.t;
  peers : int list array; (* 1-based; peers.(0) unused *)
  ids : (string, int) Hashtbl.t; (* artifact name -> interned id *)
  mutable names : string array; (* interned id -> name; length = capacity *)
  mutable requested : Bytes.t array; (* per party; index 0 unused *)
  mutable store : Icc_core.Message.t option array array; (* [Some] = known *)
  is_active : int -> bool;
  deliver_up : dst:int -> Icc_core.Message.t -> unit;
}

let initial_capacity = 256

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

(* Double the id space of the intern table and of every party's arrays. *)
let grow t =
  let old = Array.length t.names in
  t.names <- Array.append t.names (Array.make old "");
  t.requested <-
    Array.map
      (fun b ->
        let b' = Bytes.make (2 * old) '\000' in
        Bytes.blit b 0 b' 0 old;
        b')
      t.requested;
  t.store <- Array.map (fun a -> Array.append a (Array.make old None)) t.store

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.ids in
      if id = Array.length t.names then grow t;
      t.names.(id) <- name;
      Hashtbl.add t.ids name id;
      id

let knows t party id = Option.is_some t.store.(party).(id)
let remember t party id msg = t.store.(party).(id) <- Some msg

(* Gossip-layer events carry the artifact's name; they are detail-level,
   so an unobserved run never reaches the emit. *)
let emit_detail t ev =
  if Icc_sim.Trace.detailed t.trace then
    Icc_sim.Trace.emit t.trace ~time:(Icc_sim.Engine.now t.engine) (ev ())

(* Offer an artifact to every peer of [src] but [except]: an advert for a
   block, the artifact itself otherwise.  The wire value, its size and its
   kind are built once for the whole fan-out. *)
let relay t ~src ~except id msg =
  let w = if is_large msg then Advert { id } else Push { id; msg } in
  let size = wire_size t w and kind = wire_kind w in
  List.iter
    (fun peer ->
      if peer <> except then
        Icc_sim.Network.unicast t.net ~src ~dst:peer ~size ~kind w)
    t.peers.(src)

(* First acquisition of an artifact at [party]: hand it to the protocol
   layer and propagate. *)
let acquire t ~party ~from_peer id msg =
  if not (knows t party id) then begin
    remember t party id msg;
    emit_detail t (fun () ->
        Icc_sim.Trace.Gossip_acquire
          { party; peer = from_peer; artifact = t.names.(id) });
    t.deliver_up ~dst:party msg;
    if t.is_active party then relay t ~src:party ~except:from_peer id msg
  end

let on_wire t ~dst ~src w =
  Icc_obs.Profile.span "gossip.relay" @@ fun () ->
  if t.is_active dst then
    match w with
    | Advert { id } ->
        if (not (knows t dst id)) && Bytes.get t.requested.(dst) id = '\000'
        then begin
          Bytes.set t.requested.(dst) id '\001';
          emit_detail t (fun () ->
              Icc_sim.Trace.Gossip_request
                { party = dst; peer = src; artifact = t.names.(id) });
          send t ~src:dst ~dst:src (Request { id })
        end
    | Request { id } -> (
        match t.store.(dst).(id) with
        | Some msg -> send t ~src:dst ~dst:src (Deliver { id; msg })
        | None -> ())
    | Deliver { id; msg } | Push { id; msg } ->
        (* Resync control is point-to-point and intentionally repeatable:
           it carries no id and never enters the store, or repeated
           identical summaries would be swallowed. *)
        if Icc_core.Message.is_resync msg then t.deliver_up ~dst msg
        else acquire t ~party:dst ~from_peer:src id msg

let create (ctx : Icc_core.Runner.transport_ctx) ~fanout =
  let net = Icc_core.Runner.network ctx in
  let n = ctx.tr_n in
  let t =
    {
      n;
      engine = ctx.tr_engine;
      trace = ctx.tr_trace;
      net;
      peers = build_peer_graph ctx.tr_rng ~n ~fanout;
      ids = Hashtbl.create initial_capacity;
      names = Array.make initial_capacity "";
      requested =
        Array.init (n + 1) (fun _ -> Bytes.make initial_capacity '\000');
      store = Array.init (n + 1) (fun _ -> Array.make initial_capacity None);
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
  let id = intern t (artifact_id_of msg) in
  if not (knows t src id) then begin
    remember t src id msg;
    emit_detail t (fun () ->
        Icc_sim.Trace.Gossip_publish { party = src; artifact = t.names.(id) });
    t.deliver_up ~dst:src msg;
    relay t ~src ~except:0 id msg
  end

(* Byzantine split delivery: hand an artifact directly to one party, outside
   the advert/request discipline.  The receiver re-gossips as usual. *)
let inject t ~src ~dst msg =
  if Icc_core.Message.is_resync msg then
    (* Point-to-point resync control: skip the store on the send side too
       (see on_wire) so every retransmission actually travels. *)
    send t ~src ~dst (Deliver { id = no_id; msg })
  else if dst = src then publish t ~src msg
  else begin
    (* sender remembers its own artifact *)
    let id = intern t (artifact_id_of msg) in
    remember t src id msg;
    send t ~src ~dst (Deliver { id; msg })
  end

let peers t party = t.peers.(party)
