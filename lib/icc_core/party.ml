(* One ICC0 party: the Tree-Building Subprotocol (Fig. 1) and Finalization
   Subprotocol (Fig. 2), translated from the paper's blocking "wait for"
   style into an event-driven state machine.

   The translation: the guards of the wait-for alternatives (a)/(b)/(c) are
   re-evaluated (to a fixpoint) whenever the pool gains information or a
   delay-function timer edge passes.  All guard evaluations are monotone
   (rounds only advance; N, D, kmax only grow), so the fixpoint loop
   terminates.

   Byzantine behaviours are driven by the run's {!Icc_sim.Adversary}
   script: corrupt parties hold real keys and emit really-signed messages,
   and the adversary instance decides — per round, deterministically —
   whether this party equivocates, withholds shares, or sits inside a
   crash window. *)

type behavior = {
  crashed : bool; (* sends and processes nothing *)
  never_propose : bool; (* consistent failure: participates but never proposes *)
}

let honest = { crashed = false; never_propose = false }
let crashed = { honest with crashed = true }
let lazy_participant = { honest with never_propose = true }

type env = {
  config : Config.t;
  system : Icc_crypto.Keygen.system;
  engine : Icc_sim.Engine.t;
  send_broadcast : src:int -> Message.t -> unit;
      (* the paper's only communication primitive; the transport behind it
         is direct broadcast (ICC0), gossip (ICC1) or erasure-coded reliable
         broadcast (ICC2) *)
  send_unicast : src:int -> dst:int -> Message.t -> unit;
      (* used only by Byzantine behaviours for split delivery *)
  trace : Icc_sim.Trace.t;
      (* protocol milestones (round entry, proposal, notarization,
         finalization, beacon) are announced here; the run's metrics are a
         subscriber *)
  get_payload :
    pool:Pool.t -> parent:Block.t option -> round:int -> proposer:int ->
    Types.payload;
  on_output : party:int -> Block.t -> unit;
      (* called once per block, in commit order, as Fig. 2 outputs it *)
  adversary : Icc_sim.Adversary.t option;
      (* Byzantine strategy driver; None means every party follows the
         honest code path (modulo [behavior]'s crash/never-propose) *)
}

type t = {
  env : env;
  id : Types.party_id;
  keys : Icc_crypto.Keygen.party_keys;
  mutable behavior : behavior; (* mutable so runs can crash parties mid-way *)
  (* Adversary decisions latched at round entry (each drawn exactly once
     per round, so fixpoint re-evaluation never re-rolls them). *)
  mutable adv_equivocate : bool;
  mutable adv_noisy : bool;
  mutable adv_withhold_notar : bool;
  mutable adv_withhold_final : bool;
  pool : Pool.t;
  beacon : Beacon.t;
  mutable round : Types.round;
  mutable round_started : bool; (* beacon for [round] computed? *)
  mutable t0 : float;
  mutable n_shared : (Icc_crypto.Sha256.t * Types.rank) list; (* the set N *)
  mutable disqualified : Types.rank list; (* the set D *)
  mutable proposed : bool;
  mutable round_done : bool;
  mutable scheduled_ntry : Types.rank list; (* dedup for lazy timers *)
  mutable kmax : Types.round; (* finalization subprotocol cursor *)
  mutable output_log : Block.t list; (* committed blocks, newest first *)
  mutable rounds_finished : int;
  mutable delay_scale : float; (* adaptive delta_bnd multiplier (config.adaptive) *)
  mutable reported_errors : (Types.round * string) list;
      (* (round, what) pairs already announced as Protocol_error, so a
         condition re-evaluated every step reports each anomaly once *)
  (* Pool-resync sub-layer state (only used when config.resync is Some). *)
  mutable resync_peer : int; (* rotation cursor for summary targets *)
  mutable resync_interval : float; (* current (backed-off) summary interval *)
  mutable resync_last_round : Types.round; (* round seen at the last tick *)
  mutable unechoed : Message.t list;
      (* own signed broadcasts whose self-copy has not come back yet,
         newest first, at most [unechoed_cap] (see [broadcast]) *)
}

let create env ~id ~keys ~behavior =
  {
    env;
    id;
    keys;
    behavior;
    adv_equivocate = false;
    adv_noisy = false;
    adv_withhold_notar = false;
    adv_withhold_final = false;
    pool = Pool.create env.system;
    beacon = Beacon.create env.system keys.Icc_crypto.Keygen.beacon_key;
    round = 1;
    round_started = false;
    t0 = 0.;
    n_shared = [];
    disqualified = [];
    proposed = false;
    round_done = false;
    scheduled_ntry = [];
    kmax = 0;
    output_log = [];
    rounds_finished = 0;
    delay_scale = 1.0;
    reported_errors = [];
    resync_peer = id;
    resync_interval = 0.;
    resync_last_round = 0;
    unechoed = [];
  }

let output_chain p = List.rev p.output_log
let pool p = p.pool
let behavior p = p.behavior
let set_behavior p b = p.behavior <- b
let rounds_finished p = p.rounds_finished
let current_round p = p.round
let kmax p = p.kmax

(* --- sending helpers --------------------------------------------------- *)

(* A broadcast comes back to its sender as the self-copy, and the party
   need not check a signature it made itself.  It recognises that copy by
   physical identity with the value it produced, never by signer id or by
   bytes: a peer's copy is another value, even when byte-equal (decoded
   off a real wire, it always is), and is verified as any other.  So a
   value found here was signed by this party with its own keys, whatever
   path returned it.  Only signed values the pool would verify are kept:
   shares, and proposals of its own block (their authenticator).  A
   self-copy that never returns (the party was halted when it arrived, or
   a gossip layer that already held the artifact skipped it) costs only
   its slot until the cap drops it; a dropped value is verified as
   before. *)
let unechoed_cap = 16

let awaits_echo p (msg : Message.t) =
  match msg with
  | Notarization_share _ | Finalization_share _ | Beacon_share _ -> true
  | Proposal { p_block; _ } -> p_block.Block.proposer = p.id
  | Notarization _ | Finalization _ | Pool_summary _ | Pool_request _ -> false

let broadcast p msg =
  if awaits_echo p msg then
    p.unechoed <-
      msg :: List.filteri (fun i _ -> i < unechoed_cap - 1) p.unechoed;
  p.env.send_broadcast ~src:p.id msg

(* Whether [msg] is the self-copy of an own broadcast; it is consumed. *)
let own_echo p msg =
  List.memq msg p.unechoed
  && begin
       p.unechoed <- List.filter (fun m -> m != msg) p.unechoed;
       true
     end

let unicast p ~dst msg = p.env.send_unicast ~src:p.id ~dst msg

let sign_notarization_share p ~(block : Block.t) =
  let block_hash = Block.hash block in
  let text =
    Types.notarization_text ~round:block.Block.round
      ~proposer:block.Block.proposer ~block_hash
  in
  Message.Notarization_share
    {
      Types.s_round = block.Block.round;
      s_proposer = block.Block.proposer;
      s_block_hash = block_hash;
      s_share =
        Icc_crypto.Multisig.sign_share p.env.system.Icc_crypto.Keygen.notary
          p.keys.Icc_crypto.Keygen.notary_key text;
    }

let sign_finalization_share p ~(block : Block.t) =
  let block_hash = Block.hash block in
  let text =
    Types.finalization_text ~round:block.Block.round
      ~proposer:block.Block.proposer ~block_hash
  in
  Message.Finalization_share
    {
      Types.s_round = block.Block.round;
      s_proposer = block.Block.proposer;
      s_block_hash = block_hash;
      s_share =
        Icc_crypto.Multisig.sign_share p.env.system.Icc_crypto.Keygen.final
          p.keys.Icc_crypto.Keygen.final_key text;
    }

let emit p ev =
  Icc_sim.Trace.emit p.env.trace ~time:(Icc_sim.Engine.now p.env.engine) ev

let now p = Icc_sim.Engine.now p.env.engine

(* A party is halted while its behavior says crashed or the adversary holds
   it inside a crash window (the crash-vs-Byzantine hybrid): it sends and
   processes nothing until the window ends and the runner's wake fires. *)
let halted p =
  p.behavior.crashed
  ||
  match p.env.adversary with
  | None -> false
  | Some a -> Icc_sim.Adversary.crashed_now a ~now:(now p) ~party:p.id

(* Announce a should-be-impossible protocol-layer condition as a traced,
   monitor-visible event (once per (round, what)) instead of asserting:
   a single adversarial edge case must not abort a whole simulation run. *)
let protocol_error p ~round ~what =
  if
    not
      (List.exists
         (fun (r, w) -> r = round && String.equal w what)
         p.reported_errors)
  then begin
    p.reported_errors <- (round, what) :: p.reported_errors;
    emit p (Icc_sim.Trace.Protocol_error { party = p.id; round; what })
  end

let broadcast_beacon_share p ~round =
  match Beacon.my_share p.beacon round with
  | None -> ()
  | Some share ->
      let withheld =
        match p.env.adversary with
        | None -> false
        | Some a ->
            Icc_sim.Adversary.withholds a ~now:(now p) ~party:p.id ~round
              Icc_sim.Adversary.Beacon
      in
      if withheld then
        (* Keep our own pipeline moving: a broadcast's self-copy is the
           sender's own pool admission, so a withheld share still lands
           there — it just never goes on the wire.  (Unicasting to self is
           NOT equivalent: under gossip, inject with dst = src re-publishes
           to the whole network.) *)
        ignore
          (Pool.add_beacon_share p.pool ~own:true ~round
             ?verify:(Beacon.share_verifier p.beacon round)
             share)
      else begin
        emit p (Icc_sim.Trace.Beacon_share { party = p.id; round });
        broadcast p
          (Message.Beacon_share
             { b_round = round; b_signer = p.id; b_share = share })
      end

(* Bundle a block for (re)broadcast: block + authenticator + parent
   notarization, as Fig. 1's propose and echo steps require. *)
let proposal_bundle p (block : Block.t) ~authenticator =
  let parent_cert =
    if block.Block.round = 1 then None
    else
      Pool.notarization_cert p.pool
        (block.Block.round - 1, block.Block.parent_hash)
  in
  Message.Proposal
    { p_block = block; p_authenticator = authenticator; p_parent_cert = parent_cert }

(* --- round machinery --------------------------------------------------- *)

let in_n p block_hash =
  List.exists (fun (h, _) -> Icc_crypto.Sha256.equal h block_hash) p.n_shared

let n_has_rank p rank = List.exists (fun (_, r) -> r = rank) p.n_shared

(* Effective delay functions: with [config.adaptive], the delay bound is
   scaled by the party's current estimate multiplier (the paper's §1 note
   that the protocols "can be modified to adaptively adjust to an unknown
   communication-delay bound").  Rank 0 is unaffected in either case, so
   the happy path stays optimistically responsive. *)
let prop_delay p rank =
  if p.env.config.Config.adaptive then
    2. *. p.env.config.Config.delta_bnd *. p.delay_scale *. float_of_int rank
  else p.env.config.Config.delta_prop rank

let ntry_delay p rank =
  if p.env.config.Config.adaptive then
    (2. *. p.env.config.Config.delta_bnd *. p.delay_scale *. float_of_int rank)
    +. p.env.config.Config.epsilon
  else p.env.config.Config.delta_ntry rank

let adaptive_scale_limits = (0.05, 16.)

(* The adaptation signal is "did I notarization-share more than one block
   this round?" — exactly the N-is-a-singleton predicate that gates
   finalization shares.  A delay bound below the true network delay makes
   every party share its own block before hearing better-ranked ones, so N
   stops being a singleton and finalization starves; scaling the bound up
   restores it.  A crashed leader does NOT trigger the signal (N holds just
   the backup block), so crash-faults don't inflate the estimate; an
   equivocating leader does — the conflation the paper's "some care must be
   taken" alludes to, bounded here by the scale cap. *)
let update_delay_scale p =
  if p.env.config.Config.adaptive then begin
    let lo, hi = adaptive_scale_limits in
    let distinct_shared =
      List.sort_uniq compare
        (List.map (fun (h, _) -> Icc_crypto.Sha256.to_hex h) p.n_shared)
    in
    if List.length distinct_shared > 1 then
      p.delay_scale <- min hi (p.delay_scale *. 2.)
    else p.delay_scale <- max lo (p.delay_scale *. 0.9)
  end

let rank_of_block p (b : Block.t) =
  match Beacon.rank_of p.beacon p.round b.Block.proposer with
  | Some r -> r
  | None -> invalid_arg "Party.rank_of_block: beacon unknown"

let my_rank p =
  match Beacon.rank_of p.beacon p.round p.id with
  | Some r -> r
  | None -> invalid_arg "Party.my_rank: beacon unknown"

(* Forward declaration of the fixpoint driver so timers can call it. *)
let rec step p =
  if not (halted p) then begin
    Icc_obs.Profile.set_party p.id;
    Icc_obs.Profile.set_round p.round;
    Icc_obs.Profile.span "party.step" @@ fun () ->
    let progress = ref true in
    while !progress do
      progress := false;
      if finalization_pass p then progress := true;
      if (not p.round_started) && try_start_round p then progress := true;
      if p.round_started && not p.round_done then begin
        if condition_a p then progress := true
        else begin
          if condition_b p then progress := true;
          if (not p.adv_withhold_notar) && condition_c p then
            progress := true
        end
      end;
      if p.adv_noisy && p.round_started && byzantine_share_pass p then
        progress := true
    done
  end

(* Start round [p.round] once its beacon is computable (the preliminary
   wait-for of Fig. 1), then immediately release the share of the next
   round's beacon — the pipelining step. *)
and try_start_round p =
  if Beacon.try_compute p.beacon p.pool p.round then begin
    p.round_started <- true;
    p.t0 <- now p;
    p.n_shared <- [];
    p.disqualified <- [];
    p.proposed <- false;
    p.round_done <- false;
    p.scheduled_ntry <- [];
    (* Latch this round's adversary decisions (activation triggers see the
       freshly computed beacon rank; withhold draws roll once per round). *)
    (match p.env.adversary with
    | None -> ()
    | Some a ->
        let nowt = now p in
        Icc_sim.Adversary.note_round a ~now:nowt ~party:p.id ~round:p.round
          ~rank:(my_rank p);
        (match Icc_sim.Adversary.equivocation a ~now:nowt ~party:p.id with
        | Some noisy ->
            p.adv_equivocate <- true;
            p.adv_noisy <- noisy
        | None ->
            p.adv_equivocate <- false;
            p.adv_noisy <- false);
        p.adv_withhold_notar <-
          Icc_sim.Adversary.withholds a ~now:nowt ~party:p.id ~round:p.round
            Icc_sim.Adversary.Notar;
        p.adv_withhold_final <-
          Icc_sim.Adversary.withholds a ~now:nowt ~party:p.id ~round:p.round
            Icc_sim.Adversary.Final);
    emit p (Icc_sim.Trace.Round_entry { party = p.id; round = p.round });
    (* Read what the timers need first: under gossip the broadcast's
       self-copy re-enters [step], which may finish this round and move
       [p.round] on to one whose beacon is not yet known. *)
    let round = p.round and rank = my_rank p in
    broadcast_beacon_share p ~round:(round + 1);
    (* Timer for our own proposal delay. *)
    (if not (p.behavior.never_propose || p.adv_equivocate) then
       Icc_sim.Engine.schedule p.env.engine ~delay:(prop_delay p rank)
         (fun () -> if p.round = round then step p));
    (if p.adv_equivocate then
       Icc_sim.Engine.schedule p.env.engine ~delay:(prop_delay p rank)
         (fun () -> if p.round = round then equivocating_propose p));
    true
  end
  else false

(* Wait-for alternative (a): finish the round on a notarized block or a full
   set of notarization shares. *)
and condition_a p =
  match Pool.round_completion p.pool p.round with
  | None -> false
  | Some completion -> (
      let resolved =
        match completion with
        | Pool.Already_notarized (b, c) -> Some (b, c)
        | Pool.Combinable (b, shares) -> (
            let block_hash = Block.hash b in
            let text =
              Types.notarization_text ~round:b.Block.round
                ~proposer:b.Block.proposer ~block_hash
            in
            match
              Icc_crypto.Multisig.combine
                ~known:
                  (Pool.known_share p.pool `Notarization (b.Block.round, block_hash)
                     ~proposer:b.Block.proposer)
                p.env.system.Icc_crypto.Keygen.notary text shares
            with
            | None ->
                (* Stored shares were verified on admission or are the
                   party's own, so combining at quorum cannot fail; if it
                   somehow does, report it and skip the step instead of
                   aborting the run. *)
                protocol_error p ~round:b.Block.round
                  ~what:"notarization-combine-failed";
                None
            | Some multisig ->
                let cert =
                  {
                    Types.c_round = b.Block.round;
                    c_proposer = b.Block.proposer;
                    c_block_hash = block_hash;
                    c_multisig = multisig;
                  }
                in
                ignore (Pool.add_notarization p.pool cert);
                Some (b, cert))
      in
      match resolved with
      | None -> false
      | Some (block, cert) ->
      let block_hash = Block.hash block in
      emit p
        (Icc_sim.Trace.Notarize
           {
             party = p.id;
             round = p.round;
             block = Icc_crypto.Sha256.short_hex block_hash;
           });
      broadcast p (Message.Notarization cert);
      p.round_done <- true;
      p.rounds_finished <- p.rounds_finished + 1;
      (* Paper §3.3 (Finalization Subprotocol): a party broadcasts a
         finalization share for round k iff N ⊆ {B} — every block it
         notarization-shared this round is the finished block.  The
         containment is vacuously true when N = ∅ (e.g. a silent-shares
         deviation, or finishing before any (c)-step fired): a party that
         shared nothing contradicts nothing, so it must still attest.
         Pinned by test_party.ml's vacuous-finalization test. *)
      let n_subset_of_b =
        List.for_all (fun (h, _) -> Icc_crypto.Sha256.equal h block_hash) p.n_shared
      in
      if n_subset_of_b && not p.adv_withhold_final then
        broadcast p (sign_finalization_share p ~block);
      update_delay_scale p;
      (* Proceed to the next round; its beacon shares are likely pooled
         already thanks to the pipelining. *)
      p.round <- p.round + 1;
      p.round_started <- false;
      true)

(* Wait-for alternative (b): propose our own block once delta_prop(r_me) has
   elapsed. *)
and condition_b p =
  if
    p.proposed || p.behavior.never_propose || p.adv_equivocate
    || now p < p.t0 +. prop_delay p (my_rank p) -. 1e-12
  then false
  else begin
    let parent =
      if p.round = 1 then None
      else
        match Pool.notarized_blocks p.pool (p.round - 1) with
        | b :: _ -> Some b
        | [] ->
            (* The previous round only ended with a notarized block. *)
            assert false
    in
    let payload =
      p.env.get_payload ~pool:p.pool ~parent ~round:p.round ~proposer:p.id
    in
    let parent_hash =
      match parent with Some b -> Block.hash b | None -> Block.root_hash
    in
    let block =
      Block.create ~round:p.round ~proposer:p.id ~parent_hash ~payload
    in
    let block_hash = Block.hash block in
    let authenticator =
      Icc_crypto.Schnorr.sign p.keys.Icc_crypto.Keygen.auth
        (Types.authenticator_text ~round:p.round ~proposer:p.id ~block_hash)
    in
    emit p (Icc_sim.Trace.Propose { party = p.id; round = p.round });
    broadcast p (proposal_bundle p block ~authenticator);
    p.proposed <- true;
    true
  end

(* Wait-for alternative (c): echo the best-ranked valid block and either
   notarization-share it or disqualify its rank. *)
and condition_c p =
  (* Valid round-k blocks annotated with ranks. *)
  let valids =
    List.map (fun b -> (rank_of_block p b, b)) (Pool.valid_blocks p.pool p.round)
  in
  let eligible =
    List.filter (fun (r, _) -> not (List.mem r p.disqualified)) valids
  in
  match eligible with
  | [] -> false
  | _ ->
      let best_rank =
        List.fold_left (fun acc (r, _) -> min acc r) max_int eligible
      in
      (* Candidate blocks at the best non-disqualified rank, not yet in N. *)
      let candidates =
        List.filter
          (fun (r, b) -> r = best_rank && not (in_n p (Block.hash b)))
          eligible
      in
      if candidates = [] then false
      else if now p < p.t0 +. ntry_delay p best_rank -. 1e-12 then begin
        (* Timer edge not reached: arm it (once per rank per round). *)
        if not (List.mem best_rank p.scheduled_ntry) then begin
          p.scheduled_ntry <- best_rank :: p.scheduled_ntry;
          let round = p.round in
          let time = p.t0 +. ntry_delay p best_rank in
          Icc_sim.Engine.schedule_at p.env.engine ~time (fun () ->
              if p.round = round then step p)
        end;
        false
      end
      else begin
        match candidates with
        | [] -> false
        | (rank, block) :: _ ->
            let block_hash = Block.hash block in
            (* Echo: rebroadcast block, authenticator, parent notarization —
               unless it is our own proposal, which we already broadcast. *)
            (if rank <> my_rank p then
               match Pool.authenticator p.pool (p.round, block_hash) with
               | Some authenticator ->
                   broadcast p (proposal_bundle p block ~authenticator)
               | None -> ());
            if n_has_rank p rank then
              p.disqualified <- rank :: p.disqualified
            else begin
              p.n_shared <- (block_hash, rank) :: p.n_shared;
              broadcast p (sign_notarization_share p ~block)
            end;
            true
      end

(* Finalization Subprotocol (Fig. 2): runs across all rounds, independent of
   the tree-building round. *)
and finalization_pass p =
  match Pool.finalization_step p.pool ~kmax:p.kmax with
  | None -> false
  | Some fstep -> (
      let resolved =
        match fstep with
        | Pool.Final_cert (b, c) -> Some (b, c)
        | Pool.Final_combinable (b, shares) -> (
            let block_hash = Block.hash b in
            let text =
              Types.finalization_text ~round:b.Block.round
                ~proposer:b.Block.proposer ~block_hash
            in
            match
              Icc_crypto.Multisig.combine
                ~known:
                  (Pool.known_share p.pool `Finalization (b.Block.round, block_hash)
                     ~proposer:b.Block.proposer)
                p.env.system.Icc_crypto.Keygen.final text shares
            with
            | None ->
                (* As in condition (a): impossible over admission-verified
                   shares; trace it rather than killing the run. *)
                protocol_error p ~round:b.Block.round
                  ~what:"finalization-combine-failed";
                None
            | Some multisig ->
                let cert =
                  {
                    Types.c_round = b.Block.round;
                    c_proposer = b.Block.proposer;
                    c_block_hash = block_hash;
                    c_multisig = multisig;
                  }
                in
                ignore (Pool.add_finalization p.pool cert);
                Some (b, cert))
      in
      match resolved with
      | None -> false
      | Some (block, cert) ->
      emit p
        (Icc_sim.Trace.Finalize
           {
             party = p.id;
             round = block.Block.round;
             block = Icc_crypto.Sha256.short_hex (Block.hash block);
           });
      broadcast p (Message.Finalization cert);
      let segment = Chain.segment p.pool block ~from_round:p.kmax in
      List.iter
        (fun blk ->
          p.output_log <- blk :: p.output_log;
          p.env.on_output ~party:p.id blk)
        segment;
      p.kmax <- block.Block.round;
      (match p.env.config.Config.prune_depth with
      | Some depth when p.kmax - depth >= 1 ->
          Pool.prune p.pool ~below:(p.kmax - depth)
      | Some _ | None -> ());
      true)

(* Noisy equivocator's share pass: notarization- and finalization-share
   every valid current-round block immediately, ignoring delays, D and the
   best-rank rule — maximising the chance a conflicting block gathers a
   certificate (the strongest safety attack). *)
and byzantine_share_pass p =
  let fresh =
    List.filter
      (fun b -> not (in_n p (Block.hash b)))
      (Pool.valid_blocks p.pool p.round)
  in
  match fresh with
  | [] -> false
  | b :: _ ->
      p.n_shared <- (Block.hash b, rank_of_block p b) :: p.n_shared;
      broadcast p (sign_notarization_share p ~block:b);
      broadcast p (sign_finalization_share p ~block:b);
      true

(* Byzantine proposal: two conflicting blocks, each delivered to one half of
   the parties (both really signed — equivocation, not forgery). *)
and equivocating_propose p =
  if p.proposed || not p.round_started then ()
  else begin
    p.proposed <- true;
    let parent =
      if p.round = 1 then None
      else
        match Pool.notarized_blocks p.pool (p.round - 1) with
        | b :: _ -> Some b
        | [] -> None
    in
    match (parent, p.round) with
    | None, r when r > 1 -> ()
    | _ ->
        let parent_hash =
          match parent with Some b -> Block.hash b | None -> Block.root_hash
        in
        let make filler =
          let payload = { Types.commands = []; filler_size = filler } in
          let block =
            Block.create ~round:p.round ~proposer:p.id ~parent_hash ~payload
          in
          let authenticator =
            Icc_crypto.Schnorr.sign p.keys.Icc_crypto.Keygen.auth
              (Types.authenticator_text ~round:p.round ~proposer:p.id
                 ~block_hash:(Block.hash block))
          in
          (block, proposal_bundle p block ~authenticator)
        in
        let block_a, bundle_a = make 1 and block_b, bundle_b = make 2 in
        emit p (Icc_sim.Trace.Propose { party = p.id; round = p.round });
        emit p
          (Icc_sim.Trace.Adv_equivocate
             {
               party = p.id;
               round = p.round;
               block_a = Icc_crypto.Sha256.short_hex (Block.hash block_a);
               block_b = Icc_crypto.Sha256.short_hex (Block.hash block_b);
             });
        let n = p.env.config.Config.n in
        for dst = 1 to n do
          unicast p ~dst (if dst <= n / 2 then bundle_a else bundle_b)
        done;
        step p
  end

(* --- pool-resync sub-layer ---------------------------------------------- *)
(* Periodic summary/retransmit repair (config.resync): under lossy links the
   eventual-delivery assumption behind Fig. 1's "wait for" semantics breaks,
   so each party unicasts its frontier (round, kmax) to one rotating peer
   and the two sides retransmit whatever the other is missing.  All
   retransmissions are the original wire messages, re-admitted through the
   verified Pool paths, so the sub-layer cannot inject anything a direct
   broadcast could not. *)

let resync_config p = p.env.config.Config.resync

let emit_detail p ev =
  if Icc_sim.Trace.detailed p.env.trace then emit p ev

(* Unicast our frontier to the next peer in a deterministic rotation. *)
let send_summary p =
  let n = p.env.config.Config.n in
  if n > 1 then begin
    let next = (p.resync_peer mod n) + 1 in
    let next = if next = p.id then (next mod n) + 1 else next in
    p.resync_peer <- next;
    emit_detail p
      (Icc_sim.Trace.Resync_summary
         { party = p.id; peer = next; round = p.round; kmax = p.kmax });
    unicast p ~dst:next
      (Message.Pool_summary
         { ps_party = p.id; ps_round = p.round; ps_kmax = p.kmax })
  end

(* The tick reschedules itself unconditionally — including while crashed, so
   a recovered party resumes summaries without re-arming — and backs off
   exponentially (capped) while the round is stuck, resetting on progress. *)
let rec resync_tick p (rs : Config.resync) =
  if not (halted p) then begin
    if p.round > p.resync_last_round then begin
      p.resync_last_round <- p.round;
      p.resync_interval <- rs.Config.rs_period
    end
    else
      p.resync_interval <- min rs.Config.rs_backoff_cap (p.resync_interval *. 2.);
    send_summary p
  end;
  Icc_sim.Engine.schedule p.env.engine ~delay:p.resync_interval (fun () ->
      resync_tick p rs)

let start_resync p =
  match resync_config p with
  | None -> ()
  | Some rs ->
      (* Deterministic per-party stagger so summaries don't synchronise. *)
      let n = p.env.config.Config.n in
      let stagger =
        rs.Config.rs_period
        *. (1. +. (float_of_int p.id /. float_of_int (n + 1)))
      in
      p.resync_interval <- rs.Config.rs_period;
      Icc_sim.Engine.schedule p.env.engine ~delay:stagger (fun () ->
          resync_tick p rs)

(* Retransmit the artifacts of rounds [from_round, upto] — clamped to the
   chunk size, our own round, and the prune horizon — unicast to [dst]. *)
let retransmit p ~dst ~from_round ~upto =
  match resync_config p with
  | None -> ()
  | Some rs ->
      let horizon =
        match p.env.config.Config.prune_depth with
        | Some depth -> max 1 (p.kmax - depth + 1)
        | None -> 1
      in
      let from_round = max from_round horizon in
      let upto = min upto (min p.round (from_round + rs.Config.rs_chunk - 1)) in
      if upto >= from_round then begin
        let count = ref 0 in
        let send msg =
          incr count;
          unicast p ~dst msg
        in
        for r = from_round to upto do
          List.iter send (Pool.retransmit_set p.pool ~round:r)
        done;
        (* The pipelined beacon shares of the round after the window let the
           peer enter its next round without waiting for another cycle. *)
        List.iter send (Pool.beacon_share_msgs p.pool ~round:(upto + 1));
        emit_detail p
          (Icc_sim.Trace.Resync_reply
             { party = p.id; peer = dst; from_round; upto; count = !count })
      end

let resync_on_summary p ~ps_party ~ps_round ~ps_kmax =
  if
    resync_config p <> None
    && ps_party <> p.id
    && ps_party >= 1
    && ps_party <= p.env.config.Config.n
  then begin
    if ps_round > p.round then begin
      (* Peer is ahead: pull everything from just above our cursor. *)
      let from_round = max 1 (min (p.kmax + 1) p.round) in
      emit_detail p
        (Icc_sim.Trace.Resync_request
           { party = p.id; peer = ps_party; from_round; upto = ps_round });
      unicast p ~dst:ps_party
        (Message.Pool_request
           { pr_party = p.id; pr_from = from_round; pr_upto = ps_round })
    end
    else if ps_round < p.round || ps_kmax < p.kmax then
      (* Peer is behind: push from just above its cursor. *)
      retransmit p ~dst:ps_party
        ~from_round:(max 1 (min (ps_kmax + 1) ps_round))
        ~upto:p.round
    else
      (* Same frontier — possibly symmetrically stuck (each side holds
         shares the other lacks): swap the current round's artifacts. *)
      retransmit p ~dst:ps_party ~from_round:p.round ~upto:p.round
  end

let resync_on_request p ~pr_party ~pr_from ~pr_upto =
  if
    resync_config p <> None
    && pr_party <> p.id
    && pr_party >= 1
    && pr_party <= p.env.config.Config.n
  then retransmit p ~dst:pr_party ~from_round:(max 1 pr_from) ~upto:pr_upto

(* --- inbound ------------------------------------------------------------ *)

let on_message p (msg : Message.t) =
  if not (halted p) then begin
    let own = own_echo p msg in
    let changed =
      match msg with
      | Message.Proposal { p_block; p_authenticator; p_parent_cert } ->
          let c1 =
            match p_parent_cert with
            | Some cert -> Pool.add_notarization p.pool cert
            | None -> false
          in
          let c2 = Pool.add_block p.pool p_block in
          let c3 =
            Pool.add_authenticator ~own p.pool ~round:p_block.Block.round
              ~proposer:p_block.Block.proposer
              ~block_hash:(Block.hash p_block) p_authenticator
          in
          c1 || c2 || c3
      | Message.Notarization_share s -> Pool.add_notarization_share ~own p.pool s
      | Message.Notarization c -> Pool.add_notarization p.pool c
      | Message.Finalization_share s -> Pool.add_finalization_share ~own p.pool s
      | Message.Finalization c -> Pool.add_finalization p.pool c
      | Message.Beacon_share { b_round; b_share; _ } ->
          (* The wire round number is attacker-controlled: rounds below 1
             have no beacon message and are dropped outright.  When the
             previous beacon is already known, pass the verifier so a
             spoofed share contesting a signer slot is resolved (and
             evicted) at admission. *)
          if b_round < 1 then false
          else
            Pool.add_beacon_share ~own p.pool ~round:b_round
              ?verify:(Beacon.share_verifier p.beacon b_round)
              b_share
      | Message.Pool_summary { ps_party; ps_round; ps_kmax } ->
          resync_on_summary p ~ps_party ~ps_round ~ps_kmax;
          false
      | Message.Pool_request { pr_party; pr_from; pr_upto } ->
          resync_on_request p ~pr_party ~pr_from ~pr_upto;
          false
    in
    if changed then step p
  end

(* Protocol start: release the round-1 beacon share, then run the guards.
   The resync tick loop is armed even for a party that starts crashed, so
   it begins summarising as soon as it recovers. *)
let start p =
  start_resync p;
  if not (halted p) then begin
    broadcast_beacon_share p ~round:1;
    step p
  end

(* Crash–recovery: the pool models persistent storage and survives the
   crash; what is lost is the in-flight state — pending timers and whatever
   peers sent while we were down.  Recovery restarts the round clock (so
   the (b)/(c) delay edges are measured from the recovery instant rather
   than a stale t0), re-releases our beacon shares, announces our frontier
   so peers retransmit the gap, and re-runs the guards. *)
let recover p =
  if p.behavior.crashed then begin
    p.behavior <- { p.behavior with crashed = false };
    if p.round_started then begin
      p.t0 <- now p;
      p.scheduled_ntry <- []
    end;
    broadcast_beacon_share p ~round:p.round;
    broadcast_beacon_share p ~round:(p.round + 1);
    (match resync_config p with
    | Some rs ->
        p.resync_interval <- rs.Config.rs_period;
        p.resync_last_round <- p.round;
        send_summary p
    | None -> ());
    step p
  end

(* Crash-window wake-up: an adversary crash window ends on the script's
   clock, not through a Fault_recover directive, so the runner schedules
   this at each window end.  Same rehydration as [recover] minus the
   behavior flag: restart the round clock, re-release our beacon shares,
   announce our frontier, re-run the guards. *)
let wake p =
  if not (halted p) then begin
    if p.round_started then begin
      p.t0 <- now p;
      p.scheduled_ntry <- []
    end;
    broadcast_beacon_share p ~round:p.round;
    broadcast_beacon_share p ~round:(p.round + 1);
    (match resync_config p with
    | Some rs ->
        p.resync_interval <- rs.Config.rs_period;
        p.resync_last_round <- p.round;
        send_summary p
    | None -> ());
    step p
  end
