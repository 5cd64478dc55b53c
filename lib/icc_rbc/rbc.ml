(* Erasure-coded reliable broadcast — the block-dissemination subprotocol of
   Protocol ICC2 (paper §1: "a low-communication reliable broadcast
   subprotocol ... based on erasure codes", in the lineage of
   Cachin–Tessaro [11] with one less round of latency).

   To broadcast a block bundle of modeled size S among n parties with at
   most t corruptions:

     1. Send: the proposer Reed–Solomon-encodes the serialized bundle with
        k = t+1 data fragments out of n total, builds a Merkle tree over
        the fragments, signs the root, and sends party i its fragment i
        with an inclusion proof.
     2. Echo: on first receipt of its own valid fragment, each party
        forwards that fragment (with proof) to all parties.
     3. Reconstruct: holding k root-consistent fragments, a party decodes,
        re-encodes, and checks that the re-encoded fragments have the
        signed Merkle root; on success the bundle is delivered to the ICC
        round logic.  A mismatch marks the instance bad and nothing is
        delivered.

   Each party's instance keeps a Merkle.cache of the tree nodes that
   admitted paths have tied to the signed root.  A fragment hashes its
   leaf and climbs only to the first known node; the reconstruct check
   compares the fragments it holds byte for byte and hashes only the rest,
   which completes the cache.  The fragment bytes are dropped once the
   instance delivers (or fails the check), so a later fragment costs one
   leaf digest and at most ceil(log2 n) 32-byte compares.  Every verdict
   equals a full Merkle.verify per fragment and a full tree rebuild per
   reconstruct, except on a SHA-256 collision (merkle.ml's header).

   Per-party cost: n fragments of ~S/(t+1) ≈ 3S/n bytes in each direction,
   i.e. O(S) bits per party once S = Ω(n λ log n) — the paper's ICC2 bound.
   The ICC notarization share plays the role of the usual "ready" phase,
   which is where the integration with the consensus layer saves latency.

   Each party echoes at most two instances per (round, proposer), the
   RBC analogue of Fig. 1's at-most-two-echoes-per-rank rule, so equivocating
   proposers cannot inflate traffic.

   Small messages (shares, certificates, beacon shares) bypass the RBC and
   are broadcast directly. *)

type frag = {
  f_round : int;
  f_proposer : int;
  f_root : Icc_crypto.Sha256.t;
  f_index : int; (* 0-based fragment index; party i holds index i-1 *)
  f_data_size : int; (* real serialized byte length *)
  f_modeled_total : int; (* modeled bundle wire size, for traffic accounting *)
  f_bytes : string;
  f_proof : Icc_crypto.Merkle.proof;
  f_sig : Icc_crypto.Schnorr.signature; (* proposer's signature binding the root *)
}

type wire = Core of Icc_core.Message.t | Frag of frag

type instance_key = int * int * Icc_crypto.Sha256.t (* round, proposer, root *)

type instance = {
  nodes : Icc_crypto.Merkle.cache; (* authenticated under the signed root *)
  held : Bytes.t; (* one bit per fragment index admitted *)
  mutable fragments : (int * string) list;
      (* index, bytes of the admitted fragments, until the instance
         delivers or goes bad: nothing reads them afterwards *)
  mutable echoed : bool;
  mutable delivered : bool;
  mutable bad : bool;
  mutable root_sig : Icc_crypto.Schnorr.signature option;
      (* the proposer's root signature, once verified: every fragment of
         the instance carries the same one, so it is checked once *)
}

type t = {
  n : int;
  k : int; (* t + 1 data fragments *)
  system : Icc_crypto.Keygen.system;
  keys : Icc_crypto.Keygen.party_keys array;
  engine : Icc_sim.Engine.t;
  trace : Icc_sim.Trace.t;
  net : wire Icc_sim.Network.t;
  instances : (int * instance_key, instance) Hashtbl.t; (* keyed by party *)
  echo_budget : (int * int * int, int) Hashtbl.t;
      (* (party, round, proposer) -> instances echoed so far (max 2) *)
  rbc_delivered : (int * int * Icc_crypto.Sha256.t, unit) Hashtbl.t;
      (* (party, round, block hash): blocks this party obtained through
         the RBC, whose totality the fragment echo already guarantees *)
  is_active : int -> bool;
  deliver_up : dst:int -> Icc_core.Message.t -> unit;
}

let root_text ~round ~proposer root =
  Printf.sprintf "rbc|%d|%d|%s" round proposer (Icc_crypto.Sha256.to_hex root)

let serialize = Icc_core.Codec.encode
let deserialize = Icc_core.Codec.decode

(* Modeled wire size of one fragment: header + data slice + Merkle proof +
   root signature. *)
let frag_wire_size t (f : frag) =
  24
  + ((f.f_modeled_total + t.k - 1) / t.k)
  + Icc_crypto.Merkle.proof_wire_size ~n_leaves:t.n
  + Icc_crypto.Schnorr.signature_wire_size

let wire_size t = function
  | Core m -> Icc_core.Message.wire_size ~n:t.n m
  | Frag f -> frag_wire_size t f

let wire_kind = function
  | Core m -> Icc_core.Message.kind m
  | Frag _ -> "rbc-fragment"

(* RBC-layer events are detail-level: constructed only when a full trace
   subscriber is present. *)
let emit_detail t ev =
  if Icc_sim.Trace.detailed t.trace then
    Icc_sim.Trace.emit t.trace ~time:(Icc_sim.Engine.now t.engine) (ev ())

let send t ~src ~dst w =
  Icc_sim.Network.unicast t.net ~src ~dst ~size:(wire_size t w)
    ~kind:(wire_kind w) w

let broadcast_wire t ~src w =
  Icc_sim.Network.broadcast t.net ~src ~size:(wire_size t w)
    ~kind:(wire_kind w) w

let new_instance t nodes =
  {
    nodes;
    held = Bytes.make ((t.n + 7) / 8) '\000';
    fragments = [];
    echoed = false;
    delivered = false;
    bad = false;
    root_sig = None;
  }

let held inst i =
  Char.code (Bytes.get inst.held (i lsr 3)) land (1 lsl (i land 7)) <> 0

let hold inst i =
  Bytes.set inst.held (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.get inst.held (i lsr 3)) lor (1 lsl (i land 7))))

(* The party obtained this block through the RBC. *)
let note_delivered t ~party (msg : Icc_core.Message.t) =
  match msg with
  | Icc_core.Message.Proposal p ->
      Hashtbl.replace t.rbc_delivered
        (party, p.p_block.Icc_core.Block.round, Icc_core.Block.hash p.p_block)
        ()
  | Icc_core.Message.Notarization_share _ | Icc_core.Message.Notarization _
  | Icc_core.Message.Finalization_share _ | Icc_core.Message.Finalization _
  | Icc_core.Message.Beacon_share _ | Icc_core.Message.Pool_summary _
  | Icc_core.Message.Pool_request _ -> ()

(* The Send step's encoding: the instance key, the Merkle tree, and a
   builder for fragment i (party i+1's) with its inclusion proof.
   Encoding, the tree and the root signature are computed once, on
   partial application. *)
let encode t ~src (msg : Icc_core.Message.t) =
  let data = serialize msg in
  let coded = Icc_erasure.Reed_solomon.encode ~k:t.k ~n:t.n data in
  let tree = Icc_crypto.Merkle.tree coded.Icc_erasure.Reed_solomon.fragments in
  let root = Icc_crypto.Merkle.root tree in
  let round, proposer =
    match msg with
    | Icc_core.Message.Proposal p ->
        (p.p_block.Icc_core.Block.round, p.p_block.Icc_core.Block.proposer)
    | Icc_core.Message.Notarization_share _ | Icc_core.Message.Notarization _
    | Icc_core.Message.Finalization_share _ | Icc_core.Message.Finalization _
    | Icc_core.Message.Beacon_share _ | Icc_core.Message.Pool_summary _
    | Icc_core.Message.Pool_request _ ->
        invalid_arg "Rbc.disseminate: only proposals use the RBC"
  in
  (* Signed with the sender's key over (round, proposer, root): receivers
     verify against the *proposer's* public key, so only the real proposer
     can open an RBC instance in its name. *)
  let f_sig =
    Icc_crypto.Schnorr.sign
      t.keys.(src - 1).Icc_crypto.Keygen.auth
      (root_text ~round ~proposer root)
  in
  let modeled_total = Icc_core.Message.wire_size ~n:t.n msg in
  ( (round, proposer, root),
    tree,
    fun i ->
      {
        f_round = round;
        f_proposer = proposer;
        f_root = root;
        f_index = i;
        f_data_size = coded.Icc_erasure.Reed_solomon.data_size;
        f_modeled_total = modeled_total;
        f_bytes = coded.Icc_erasure.Reed_solomon.fragments.(i);
        f_proof = Icc_crypto.Merkle.proof tree i;
        f_sig;
      } )

let fragment t ~src msg =
  let _, _, frag = encode t ~src msg in
  frag

(* The proposer's Send step (and self-delivery of the full bundle). *)
let disseminate t ~src (msg : Icc_core.Message.t) =
  Icc_obs.Profile.span "rbc.disseminate" @@ fun () ->
  let key, tree, frag = encode t ~src msg in
  (* Self-delivery; mark the instance so echoes can't deliver it twice.
     The proposer knows the whole tree, so echoes cost it one leaf digest
     each. *)
  let inst =
    match Hashtbl.find_opt t.instances (src, key) with
    | Some i -> i
    | None ->
        let i = new_instance t (Icc_crypto.Merkle.cache_of_tree tree) in
        Hashtbl.add t.instances (src, key) i;
        i
  in
  inst.delivered <- true;
  inst.fragments <- [];
  note_delivered t ~party:src msg;
  t.deliver_up ~dst:src msg;
  for dst = 1 to t.n do
    if dst <> src then send t ~src ~dst (Frag (frag (dst - 1)))
  done

(* A fragment is admitted when the proposer's root signature verifies and
   its Merkle path is leaf [f_index]'s (else a peer could relabel a
   genuine fragment j as i, fill slot i and block the real one) and
   reaches the signed root.  The signature is checked once per instance:
   a fragment whose [f_sig] equals the one the instance already verified
   (same round, proposer and root, so the same signed text) skips the
   Schnorr equation.  [Merkle.admit] checks the path's shape and then
   hashes only up to the first node the instance has authenticated. *)
let frag_valid t (inst : instance) (f : frag) =
  let sig_known =
    match inst.root_sig with
    | Some s -> Icc_crypto.Schnorr.equal s f.f_sig
    | None -> false
  in
  f.f_proposer >= 1 && f.f_proposer <= t.n
  && (sig_known
     || Icc_crypto.Schnorr.verify
          t.system.Icc_crypto.Keygen.auth_pub.(f.f_proposer - 1)
          (root_text ~round:f.f_round ~proposer:f.f_proposer f.f_root)
          f.f_sig)
  && Icc_crypto.Merkle.admit inst.nodes ~index:f.f_index ~leaf:f.f_bytes
       f.f_proof

let try_reconstruct t ~party (inst : instance) (f : frag) =
  if (not inst.delivered) && (not inst.bad)
     && List.length inst.fragments >= t.k
  then
    Icc_obs.Profile.span "rbc.reconstruct" @@ fun () ->
    match
      Icc_erasure.Reed_solomon.decode ~k:t.k ~n:t.n
        ~data_size:f.f_data_size inst.fragments
    with
    | None -> ()
    | Some data -> (
        (* Full consistency check: the reconstructed data must re-encode to
           a fragment set with the signed Merkle root.  The fragments held
           are compared byte for byte; only the others are hashed. *)
        let coded =
          (Icc_erasure.Reed_solomon.encode ~k:t.k ~n:t.n data)
            .Icc_erasure.Reed_solomon.fragments
        in
        let consistent =
          List.for_all (fun (i, b) -> String.equal coded.(i) b) inst.fragments
          && Icc_crypto.Merkle.complete inst.nodes ~held:(held inst) coded
        in
        inst.fragments <- [];
        let inconsistent () =
          inst.bad <- true;
          emit_detail t (fun () ->
              Icc_sim.Trace.Rbc_inconsistent
                { party; round = f.f_round; proposer = f.f_proposer })
        in
        if not consistent then inconsistent ()
        else
          match deserialize data with
          | None -> inconsistent ()
          | Some msg ->
              inst.delivered <- true;
              emit_detail t (fun () ->
                  Icc_sim.Trace.Rbc_reconstruct
                    { party; round = f.f_round; proposer = f.f_proposer });
              note_delivered t ~party msg;
              t.deliver_up ~dst:party msg)

(* A duplicate index is dropped before any hashing or verification. *)
let on_frag t ~dst (f : frag) =
  Icc_obs.Profile.span "rbc.receive" @@ fun () ->
  if t.is_active dst then begin
    let key = (dst, (f.f_round, f.f_proposer, f.f_root)) in
    let existing = Hashtbl.find_opt t.instances key in
    let inst =
      match existing with
      | Some i -> i
      | None ->
          new_instance t (Icc_crypto.Merkle.cache ~n_leaves:t.n ~root:f.f_root)
    in
    if
      f.f_index >= 0 && f.f_index < t.n
      && (not (held inst f.f_index))
      && frag_valid t inst f
    then begin
      if Option.is_none existing then Hashtbl.add t.instances key inst;
      inst.root_sig <- Some f.f_sig;
      hold inst f.f_index;
      if not (inst.delivered || inst.bad) then
        inst.fragments <- (f.f_index, f.f_bytes) :: inst.fragments;
      emit_detail t (fun () ->
          Icc_sim.Trace.Rbc_fragment
            {
              party = dst;
              round = f.f_round;
              proposer = f.f_proposer;
              index = f.f_index;
            });
      (* Echo step: forward our own fragment once, within the per-proposer
         budget of two instances. *)
      if f.f_index = dst - 1 && not inst.echoed then begin
        let bkey = (dst, f.f_round, f.f_proposer) in
        let used = Option.value ~default:0 (Hashtbl.find_opt t.echo_budget bkey) in
        if used < 2 then begin
          Hashtbl.replace t.echo_budget bkey (used + 1);
          inst.echoed <- true;
          emit_detail t (fun () ->
              Icc_sim.Trace.Rbc_echo
                { party = dst; round = f.f_round; proposer = f.f_proposer });
          broadcast_wire t ~src:dst (Frag f)
        end
      end;
      try_reconstruct t ~party:dst inst f
    end
  end

let create (ctx : Icc_core.Runner.transport_ctx) =
  let net = Icc_core.Runner.network ctx in
  let t =
    {
      n = ctx.tr_n;
      k = ctx.tr_t + 1;
      system = ctx.tr_system;
      keys = ctx.tr_keys;
      engine = ctx.tr_engine;
      trace = ctx.tr_trace;
      net;
      instances = Hashtbl.create 256;
      echo_budget = Hashtbl.create 256;
      rbc_delivered = Hashtbl.create 256;
      is_active = ctx.tr_is_active;
      deliver_up = ctx.tr_deliver;
    }
  in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ w ->
      match w with
      | Core msg -> t.deliver_up ~dst msg
      | Frag f -> on_frag t ~dst f);
  t

(* The transport interface: a proposer's own proposal flows through the RBC;
   everything else is broadcast directly.

   The round logic's echo (Fig. 1 condition (c)) of a block that arrived
   through the RBC is a no-op: the fragment-echo step already guarantees
   totality (if any honest party reconstructed, every honest party holds
   enough fragments to).  A block that arrived *outside* the RBC — a
   Byzantine proposer's direct split delivery — still needs the classical
   full echo for deadlock-freeness. *)
let tx_broadcast t ~src msg =
  match msg with
  | Icc_core.Message.Proposal p ->
      let b = p.Icc_core.Message.p_block in
      if b.Icc_core.Block.proposer = src then disseminate t ~src msg
      else if
        Hashtbl.mem t.rbc_delivered
          (src, b.Icc_core.Block.round, Icc_core.Block.hash b)
      then () (* totality already ensured by the fragment echo *)
      else broadcast_wire t ~src (Core msg)
  | Icc_core.Message.Notarization_share _ | Icc_core.Message.Notarization _
  | Icc_core.Message.Finalization_share _ | Icc_core.Message.Finalization _
  | Icc_core.Message.Beacon_share _ | Icc_core.Message.Pool_summary _
  | Icc_core.Message.Pool_request _ ->
      broadcast_wire t ~src (Core msg)

(* Byzantine split delivery: ship the full bundle directly (accounted at
   full size); the receiver's round logic takes it from there. *)
let tx_unicast t ~src ~dst msg =
  if dst = src then t.deliver_up ~dst msg
  else send t ~src ~dst (Core msg)
