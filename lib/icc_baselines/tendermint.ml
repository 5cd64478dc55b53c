(* Tendermint [8] (simplified) on the shared simulator substrate: the
   related-work baseline the paper contrasts on optimistic responsiveness —
   "in Tendermint, every round takes time O(Delta_bnd), even when the
   leader is honest".

   Implemented: heights with rounds, round-robin proposers, the
   propose / prevote / precommit step ladder with 2t+1 quorums, value
   locking across rounds, nil votes on step timeouts, and the fixed
   commit wait before the next height begins — the structural source of
   Tendermint's non-responsiveness (the protocol paces on its timeout
   parameter, not on the actual network delay).

   Simplifications: proposals carry value digests rather than full
   proof-of-lock justifications (sound under the crash-fault scenarios the
   experiments use; Byzantine proposer equivocation would need POL checks),
   and block dissemination is direct broadcast rather than gossip — the
   dissemination layer is orthogonal to the responsiveness comparison. *)

type step = Propose | Prevote | Precommit

let nil = ""

type msg =
  | Proposal of { h : int; r : int; digest : string; size : int;
                  sig_ : Icc_crypto.Schnorr.signature }
  | Prevote of { h : int; r : int; v : string; replica : int;
                 sig_ : Icc_crypto.Schnorr.signature }
  | Precommit of { h : int; r : int; v : string; replica : int;
                   sig_ : Icc_crypto.Schnorr.signature }

let proposal_text ~h ~r ~digest = Printf.sprintf "tm-prop|%d|%d|%s" h r digest
let prevote_text ~h ~r ~v ~replica = Printf.sprintf "tm-pv|%d|%d|%s|%d" h r v replica
let precommit_text ~h ~r ~v ~replica = Printf.sprintf "tm-pc|%d|%d|%s|%d" h r v replica

let msg_wire_size ~n:_ = function
  | Proposal { size; _ } -> 96 + size
  | Prevote _ | Precommit _ -> 120

let msg_kind = function
  | Proposal _ -> "tm-proposal"
  | Prevote _ -> "tm-prevote"
  | Precommit _ -> "tm-precommit"

type replica = {
  id : int;
  n : int;
  t : int;
  auth : Icc_crypto.Schnorr.secret_key;
  auth_pub : Icc_crypto.Schnorr.public_key array;
  live : Harness.live;
  mutable height : int;
  mutable round : int;
  mutable step : step;
  mutable locked : (int * string) option; (* locked round, value *)
  mutable step_seq : int; (* invalidates stale step timeouts *)
  proposals : (int * int, string * int) Hashtbl.t; (* (h, r) -> digest, size *)
  votes_pv : (int * int * string, (int, unit) Hashtbl.t) Hashtbl.t;
  votes_pc : (int * int * string, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable decided : string list; (* newest first *)
  mutable deciding : bool; (* between decision and next-height start *)
}

let proposer_of ~n ~h ~r = ((h + r - 1) mod n) + 1
let quorum r = r.n - r.t

let votes = Harness.votes_for

(* Run [f] one step timeout from now. *)
let after_timeout t f =
  Icc_sim.Engine.schedule t.Harness.engine ~delay:t.Harness.scenario.timeout f

let broadcast t ~src msg =
  Icc_sim.Network.broadcast t.Harness.net ~src
    ~size:(msg_wire_size ~n:t.Harness.scenario.n msg)
    ~kind:(msg_kind msg) msg

let fresh_digest r ~h =
  Printf.sprintf "tm-block|%d|%d|%d" h r.id r.round

(* Enter a (height, round) and, if proposer, propose. *)
let rec start_round t r ~h ~round =
  if not r.live.crashed then begin
    r.height <- h;
    r.round <- round;
    r.step <- Propose;
    r.step_seq <- r.step_seq + 1;
    r.deciding <- false;
    let seq = r.step_seq in
    (if proposer_of ~n:r.n ~h ~r:round = r.id then begin
       let digest =
         match r.locked with Some (_, v) -> v | None -> fresh_digest r ~h
       in
       Harness.note_proposal t ~digest;
       let sig_ =
         Icc_crypto.Schnorr.sign r.auth (proposal_text ~h ~r:round ~digest)
       in
       broadcast t ~src:r.id
         (Proposal
            { h; r = round; digest; size = t.Harness.scenario.block_size; sig_ })
     end);
    (* timeout: prevote nil if no proposal arrived *)
    after_timeout t (fun () ->
        if (not r.live.crashed) && r.step_seq = seq && r.step = Propose then
          cast_prevote t r ~v:nil)
  end

and cast_prevote t r ~v =
  if r.step = Propose then begin
    r.step <- Prevote;
    r.step_seq <- r.step_seq + 1;
    let seq = r.step_seq in
    let v =
      (* a locked replica prevotes its lock unless the proposal matches;
         timeouts (v = nil) prevote nil regardless *)
      match r.locked with
      | Some (_, lv) when (not (String.equal v nil)) && not (String.equal lv v)
        ->
          lv
      | _ -> v
    in
    let sig_ =
      Icc_crypto.Schnorr.sign r.auth
        (prevote_text ~h:r.height ~r:r.round ~v ~replica:r.id)
    in
    broadcast t ~src:r.id (Prevote { h = r.height; r = r.round; v; replica = r.id; sig_ });
    (* timeout: precommit nil if no prevote quorum on a value materialises *)
    after_timeout t (fun () ->
        if (not r.live.crashed) && r.step_seq = seq && r.step = Prevote then
          cast_precommit t r ~v:nil)
  end

and cast_precommit t r ~v =
  if r.step = Prevote then begin
    r.step <- Precommit;
    r.step_seq <- r.step_seq + 1;
    let seq = r.step_seq in
    if not (String.equal v nil) then r.locked <- Some (r.round, v);
    let sig_ =
      Icc_crypto.Schnorr.sign r.auth
        (precommit_text ~h:r.height ~r:r.round ~v ~replica:r.id)
    in
    broadcast t ~src:r.id
      (Precommit { h = r.height; r = r.round; v; replica = r.id; sig_ });
    (* timeout: move to the next round of the same height *)
    after_timeout t (fun () ->
        if (not r.live.crashed) && r.step_seq = seq && r.step = Precommit
           && not r.deciding
        then start_round t r ~h:r.height ~round:(r.round + 1))
  end

and decide t r ~v =
  if not r.deciding then begin
    r.deciding <- true;
    r.step_seq <- r.step_seq + 1;
    r.decided <- v :: r.decided;
    r.locked <- None;
    Harness.note_executed t ~party:r.id ~digest:v;
    (* the fixed commit wait before the next height: Tendermint's
       non-responsiveness — pacing is timeout-driven, not delay-driven *)
    let h = r.height in
    after_timeout t (fun () ->
        if (not r.live.crashed) && r.height = h then
          start_round t r ~h:(h + 1) ~round:0)
  end

let on_message t r msg =
  match msg with
  | Proposal { h; r = round; digest; size = _; sig_ } ->
      let src = proposer_of ~n:r.n ~h ~r:round in
      if
        Icc_crypto.Schnorr.verify r.auth_pub.(src - 1)
          (proposal_text ~h ~r:round ~digest) sig_
      then begin
        Hashtbl.replace r.proposals (h, round) (digest, 0);
        if h = r.height && round = r.round && r.step = Propose then
          cast_prevote t r ~v:digest
      end
  | Prevote { h; r = round; v; replica; sig_ } ->
      if
        Icc_crypto.Schnorr.verify r.auth_pub.(replica - 1)
          (prevote_text ~h ~r:round ~v ~replica) sig_
      then begin
        Hashtbl.replace (votes r.votes_pv (h, round, v)) replica ();
        if
          h = r.height && round = r.round && r.step = Prevote
          && (not (String.equal v nil))
          && Hashtbl.length (votes r.votes_pv (h, round, v)) >= quorum r
        then cast_precommit t r ~v
      end
  | Precommit { h; r = round; v; replica; sig_ } ->
      if
        Icc_crypto.Schnorr.verify r.auth_pub.(replica - 1)
          (precommit_text ~h ~r:round ~v ~replica) sig_
      then begin
        Hashtbl.replace (votes r.votes_pc (h, round, v)) replica ();
        if
          h = r.height
          && (not (String.equal v nil))
          && Hashtbl.length (votes r.votes_pc (h, round, v)) >= quorum r
        then decide t r ~v
      end

let run =
  Harness.run
    {
      Harness.label = "tendermint";
      replicas =
        (fun scenario ~keys _ ->
          let auth_pub = Array.map snd keys in
          Array.init scenario.Harness.n (fun i ->
              {
                id = i + 1;
                n = scenario.Harness.n;
                t = scenario.Harness.t;
                auth = fst keys.(i);
                auth_pub;
                live = Harness.live scenario (i + 1);
                height = 1;
                round = 0;
                step = Propose;
                locked = None;
                step_seq = 0;
                proposals = Hashtbl.create 64;
                votes_pv = Hashtbl.create 64;
                votes_pc = Hashtbl.create 64;
                decided = [];
                deciding = false;
              }));
      live = (fun r -> r.live);
      on_message;
      on_stall = None;
      kickoff =
        (fun t replicas ->
          Array.iter (fun r -> start_round t r ~h:1 ~round:0) replicas);
      executed = (fun r -> List.rev r.decided);
    }
