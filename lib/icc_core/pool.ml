(* A party's message pool (paper §3.1, §3.4): the set of all messages it has
   received, indexed so the block-classification predicates — authentic,
   valid, notarized, finalized — can be evaluated incrementally.

   A signature is verified at most once per party, and only while it can
   still change the pool: beacon shares are verified lazily when the
   beacon is combined (only the t+1 it uses), a notarization or
   finalization share is skipped once its block holds the certificate of
   its kind, and the party's own values are admitted unchecked ([?own]).
   Messages failing verification are dropped.  Classification is
   monotone, so the pool maintains it by a promotion cascade: a block
   becomes valid when it is authentic and its parent is notarized; it
   becomes notarized/finalized when additionally a certificate is present.
   Promoting a block re-examines its children.

   Large-n layout: all per-round state lives in a *ring of round slots*
   indexed by [round mod capacity] — flat records reused across rounds —
   instead of a constellation of per-key Hashtbls.  Within a slot, each
   (round, block-hash) key owns one [entry] record holding its block,
   authenticator, certificates, classification bits and share multisets, so
   every admission is one short scan over the slot's few entries plus O(1)
   field updates; per-signer deduplication of shares and beacon shares is a
   bitset / signer-indexed array rather than a list scan.  The ring grows
   (rebuilding into a doubled array) only when the live round window —
   [pruned_below .. newest admitted round] — outgrows the capacity, so with
   pruning enabled memory is proportional to the window, not the run.

   The classification views ([valid_blocks], [notarized_blocks],
   [round_completion], the finalization scan) read the bits the cascade
   keeps current, scanning their slot's few block entries on each call. *)

type key = Types.round * Icc_crypto.Sha256.t

(* Per-signer share multiset: the share list keeps the legacy newest-first
   order (it is handed verbatim to [Multisig.combine] and the resync
   retransmitter), while the bitset answers the per-admission duplicate
   check in O(1).  Admitted signers are always in [1..n] ([verify_share]
   enforces it), so the bitset is complete.  [ss_proposer] is [Some p] while
   every share's signed text named proposer [p], and [None] once two shares
   disagree (only a Byzantine signer names a proposer other than the
   block's).  [None] is a state no proposer can equal, even an out-of-range
   one decoded from the wire, so a mixed set never vouches; [Some p] is what
   lets {!known_in} vouch for a share without re-verifying it. *)
type shareset = {
  mutable ss_items : Icc_crypto.Multisig.share list; (* newest first *)
  mutable ss_count : int;
  mutable ss_proposer : Types.party_id option;
  ss_seen : Bytes.t; (* signer-indexed presence bits, 1-based *)
}

(* A beacon share slot.  Shares are admitted unverified; [be_verified] is
   flipped (or the entry evicted) when the share is first checked, which
   happens only if the beacon needs it or a different share contests the
   slot.  See {!add_beacon_share}. *)
type beacon_entry = {
  mutable be_share : Icc_crypto.Threshold_vuf.signature_share;
  mutable be_verified : bool;
}

(* Everything the pool knows about one (round, block-hash) key. *)
type entry = {
  e_hash : Icc_crypto.Sha256.t;
  mutable e_block : Block.t option;
  mutable e_auth : Icc_crypto.Schnorr.signature option;
  mutable e_notar_cert : Types.cert option;
  mutable e_final_cert : Types.cert option;
  mutable e_notar_shares : shareset option; (* allocated on first share *)
  mutable e_final_shares : shareset option;
  mutable e_valid : bool;
  mutable e_notarized : bool;
  mutable e_finalized : bool;
}

(* A way to finish round k: either a notarized block, or a valid
   non-notarized block holding a full set of notarization shares. *)
type completion =
  | Already_notarized of Block.t * Types.cert
  | Combinable of Block.t * Icc_crypto.Multisig.share list

type finalization_step =
  | Final_cert of Block.t * Types.cert
  | Final_combinable of Block.t * Icc_crypto.Multisig.share list

(* One round's state.  [s_round = -1] marks a free slot.  [s_blocks] lists
   the entries holding blocks in admission order, newest first — exactly
   the enumeration order the old per-round key lists had, which the
   classification views, completion scan and resync retransmitter all
   inherit (so refactoring cannot reorder any observable list). *)
type slot = {
  mutable s_round : int;
  mutable s_entries : entry list; (* newest-created first *)
  mutable s_blocks : entry list; (* block admission order, newest first *)
  mutable s_beacon : beacon_entry option array; (* by signer; [||] until used *)
  mutable s_beacon_list : beacon_entry list; (* admission order, newest first *)
}

type t = {
  system : Icc_crypto.Keygen.system;
  payload_valid : Block.t -> bool;
  mutable slots : slot array; (* the ring; length is the capacity *)
  mutable max_round : Types.round;
  mutable pruned_below : Types.round;
}

let fresh_slot () =
  {
    s_round = -1;
    s_entries = [];
    s_blocks = [];
    s_beacon = [||];
    s_beacon_list = [];
  }

let initial_capacity = 16

let create ?(payload_valid = fun _ -> true) system =
  {
    system;
    payload_valid;
    slots = Array.init initial_capacity (fun _ -> fresh_slot ());
    max_round = 0;
    pruned_below = 0;
  }

(* --- ring management ---------------------------------------------------- *)

let clear_slot s =
  s.s_round <- -1;
  s.s_entries <- [];
  s.s_blocks <- [];
  if Array.length s.s_beacon > 0 then
    Array.fill s.s_beacon 0 (Array.length s.s_beacon) None;
  s.s_beacon_list <- []

let find_slot t round =
  if round < 0 then None
  else
    let s = t.slots.(round mod Array.length t.slots) in
    if s.s_round = round then Some s else None

(* Double the ring until every live round lands on a distinct index.  Live
   rounds are distinct integers, so any capacity larger than their span
   works; the loop terminates after O(log span) attempts. *)
let grow t =
  let live =
    Array.to_list t.slots |> List.filter (fun s -> s.s_round >= 0)
  in
  let rec build cap =
    let arr = Array.init cap (fun _ -> fresh_slot ()) in
    let ok =
      List.for_all
        (fun s ->
          let i = s.s_round mod cap in
          if arr.(i).s_round >= 0 then false
          else begin
            arr.(i) <- s;
            true
          end)
        live
    in
    if ok then arr else build (2 * cap)
  in
  t.slots <- build (2 * Array.length t.slots)

(* The slot for [round], claiming (or recycling a pruned) slot on demand.
   Callers guarantee [round >= t.pruned_below >= 0]. *)
let rec claim t round =
  let s = t.slots.(round mod Array.length t.slots) in
  if s.s_round = round then s
  else if s.s_round < t.pruned_below then begin
    (* free (-1) or holds only discardable pruned state *)
    clear_slot s;
    s.s_round <- round;
    s
  end
  else begin
    grow t;
    claim t round
  end

(* --- per-slot lookups --------------------------------------------------- *)

let find_entry s h =
  List.find_opt (fun e -> Icc_crypto.Sha256.equal e.e_hash h) s.s_entries

let entry_of t (round, h) =
  match find_slot t round with None -> None | Some s -> find_entry s h

let find_or_create_entry s h =
  match find_entry s h with
  | Some e -> e
  | None ->
      let e =
        {
          e_hash = h;
          e_block = None;
          e_auth = None;
          e_notar_cert = None;
          e_final_cert = None;
          e_notar_shares = None;
          e_final_shares = None;
          e_valid = false;
          e_notarized = false;
          e_finalized = false;
        }
      in
      s.s_entries <- e :: s.s_entries;
      e

let new_shareset n ~proposer =
  {
    ss_items = [];
    ss_count = 0;
    ss_proposer = Some proposer;
    ss_seen = Bytes.make ((n lsr 3) + 1) '\000';
  }

let ss_mem ss signer =
  Char.code (Bytes.get ss.ss_seen (signer lsr 3)) land (1 lsl (signer land 7))
  <> 0

let ss_mark ss signer =
  Bytes.set ss.ss_seen (signer lsr 3)
    (Char.chr
       (Char.code (Bytes.get ss.ss_seen (signer lsr 3))
       lor (1 lsl (signer land 7))))

let ss_add ss ~proposer signer share =
  (match ss.ss_proposer with
  | Some p when p = proposer -> ()
  | Some _ | None -> ss.ss_proposer <- None);
  ss_mark ss signer;
  ss.ss_items <- share :: ss.ss_items;
  ss.ss_count <- ss.ss_count + 1

(* --- classification queries ------------------------------------------- *)

let find_block t key =
  match entry_of t key with None -> None | Some e -> e.e_block

let authenticator t key =
  match entry_of t key with None -> None | Some e -> e.e_auth

let is_valid t key =
  match entry_of t key with None -> false | Some e -> e.e_valid

let is_notarized t ((round, h) as key) =
  (round = 0 && Icc_crypto.Sha256.equal h Block.root_hash)
  || match entry_of t key with None -> false | Some e -> e.e_notarized

let is_finalized t ((round, h) as key) =
  (round = 0 && Icc_crypto.Sha256.equal h Block.root_hash)
  || match entry_of t key with None -> false | Some e -> e.e_finalized

(* The slot's block entries, newest first; [] for a round with no slot. *)
let slot_blocks t round =
  match find_slot t round with None -> [] | Some s -> s.s_blocks

let blocks_of_round t round =
  List.filter_map (fun e -> e.e_block) (slot_blocks t round)

let valid_blocks t round =
  List.filter_map
    (fun e -> if e.e_valid then e.e_block else None)
    (slot_blocks t round)

let notarized_blocks t round =
  List.filter_map
    (fun e -> if e.e_notarized then e.e_block else None)
    (slot_blocks t round)

let notarization_cert t key =
  match entry_of t key with None -> None | Some e -> e.e_notar_cert

let finalization_cert t key =
  match entry_of t key with None -> None | Some e -> e.e_final_cert

let notar_share_count t key =
  match entry_of t key with
  | None -> 0
  | Some e -> ( match e.e_notar_shares with None -> 0 | Some ss -> ss.ss_count)

let notar_shares t key =
  match entry_of t key with
  | None -> []
  | Some e -> (
      match e.e_notar_shares with None -> [] | Some ss -> ss.ss_items)

let final_share_count t key =
  match entry_of t key with
  | None -> 0
  | Some e -> ( match e.e_final_shares with None -> 0 | Some ss -> ss.ss_count)

let final_shares t key =
  match entry_of t key with
  | None -> []
  | Some e -> (
      match e.e_final_shares with None -> [] | Some ss -> ss.ss_items)

let beacon_shares t round =
  match find_slot t round with
  | None -> []
  | Some s -> List.map (fun e -> e.be_share) s.s_beacon_list

let max_round t = t.max_round

(* --- promotion cascade ------------------------------------------------ *)

let rec promote_entry t ~round e =
  match e.e_block with
  | None -> ()
  | Some b ->
      if
        (not e.e_valid)
        && Option.is_some e.e_auth
        && is_notarized t (round - 1, b.Block.parent_hash)
        && t.payload_valid b
      then e.e_valid <- true;
      if e.e_valid then begin
        let newly_notarized =
          (not e.e_notarized) && Option.is_some e.e_notar_cert
        in
        if newly_notarized then e.e_notarized <- true;
        if (not e.e_finalized) && Option.is_some e.e_final_cert then
          e.e_finalized <- true;
        if newly_notarized then begin
          (* Children all live in round + 1 (validity pins a child to the
             round right above its parent), in that slot's block order. *)
          let h = Block.hash b in
          List.iter
            (fun ce ->
              match ce.e_block with
              | Some cb when Icc_crypto.Sha256.equal cb.Block.parent_hash h ->
                  promote_entry t ~round:(round + 1) ce
              | _ -> ())
            (slot_blocks t (round + 1))
        end
      end

(* --- admission -------------------------------------------------------- *)
(* Each [add_*] returns true when the pool gained information.  Admissions
   below the prune horizon are rejected: those rounds are finalized and
   discarded, and re-admitting them would leak storage forever (the GC
   never revisits a pruned round).  Nothing is allocated for a message
   that fails verification. *)

let add_block t (b : Block.t) =
  Icc_obs.Profile.span "pool.admit" @@ fun () ->
  let round = b.Block.round in
  if round < t.pruned_below || round < 0 then false
  else
    let s = claim t round in
    let h = Block.hash b in
    let e = find_or_create_entry s h in
    if Option.is_some e.e_block then false
    else begin
      e.e_block <- Some b;
      s.s_blocks <- e :: s.s_blocks;
      if round > t.max_round then t.max_round <- round;
      promote_entry t ~round e;
      true
    end

let add_authenticator ?(own = false) t ~round ~proposer ~block_hash signature =
  Icc_obs.Profile.span "pool.admit" @@ fun () ->
  if round < t.pruned_below || round < 0 then false
  else
    let existing = entry_of t (round, block_hash) in
    match existing with
    | Some e when Option.is_some e.e_auth -> false
    | _ ->
        if
          proposer >= 1
          && proposer <= t.system.Icc_crypto.Keygen.n
          && (own
             || Icc_crypto.Schnorr.verify
                  t.system.Icc_crypto.Keygen.auth_pub.(proposer - 1)
                  (Types.authenticator_text ~round ~proposer ~block_hash)
                  signature)
        then begin
          let s = claim t round in
          let e = find_or_create_entry s block_hash in
          e.e_auth <- Some signature;
          promote_entry t ~round e;
          true
        end
        else false

(* --- verify once per party ------------------------------------------- *)
(* A notarization or finalization is just a set of n - t shares (§2.3
   approach (i)), so one signature reaches a party up to three times: as a
   share, inside the set it combines itself, and inside a certificate.
   Each (signer, text, signature) triple is verified once; later copies are
   answered from what the entry already holds.  The signed text is fixed by
   (kind, round, proposer, block hash), and the entry fixes round and hash,
   so a stored share vouches for a newcomer only when the kinds and
   proposers match and the signatures are equal.  The memo is the stored
   shares and certificates themselves: no extra table per entry. *)

let cert_of e = function
  | `Notarization -> e.e_notar_cert
  | `Finalization -> e.e_final_cert

let shares_of e = function
  | `Notarization -> e.e_notar_shares
  | `Finalization -> e.e_final_shares

(* Certificate members are sorted by signer, so the walk stops early. *)
let cert_holds (c : Types.cert) (sh : Icc_crypto.Multisig.share) =
  let rec go signers sigs =
    match (signers, sigs) with
    | s :: signers, g :: sigs ->
        if s = sh.signer then Icc_crypto.Schnorr.equal g sh.signature
        else s < sh.signer && go signers sigs
    | _ -> false
  in
  go c.c_multisig.signers c.c_multisig.signatures

let known_in e kind ~proposer (sh : Icc_crypto.Multisig.share) =
  (match cert_of e kind with
  | Some c -> c.c_proposer = proposer && cert_holds c sh
  | None -> false)
  ||
  match shares_of e kind with
  | Some ss ->
      (match ss.ss_proposer with Some p -> p = proposer | None -> false)
      && List.exists
           (fun (x : Icc_crypto.Multisig.share) ->
             x.signer = sh.signer
             && Icc_crypto.Schnorr.equal x.signature sh.signature)
           ss.ss_items
  | None -> false

let known_share t kind key ~proposer =
  match entry_of t key with
  | None -> fun _ -> false
  | Some e -> known_in e kind ~proposer

let params_of t = function
  | `Notarization -> t.system.Icc_crypto.Keygen.notary
  | `Finalization -> t.system.Icc_crypto.Keygen.final

let text_of kind ~round ~proposer ~block_hash =
  match kind with
  | `Notarization -> Types.notarization_text ~round ~proposer ~block_hash
  | `Finalization -> Types.finalization_text ~round ~proposer ~block_hash

let add_cert t ~kind (c : Types.cert) =
  Icc_obs.Profile.span "pool.admit" @@ fun () ->
  let round = c.c_round in
  if round < t.pruned_below || round < 0 then false
  else
    let existing = entry_of t (round, c.c_block_hash) in
    match existing with
    | Some e when Option.is_some (cert_of e kind) -> false
    | _ ->
        let known =
          match existing with
          | None -> fun _ -> false
          | Some e -> known_in e kind ~proposer:c.c_proposer
        in
        if
          Icc_crypto.Multisig.verify ~known (params_of t kind)
            (text_of kind ~round ~proposer:c.c_proposer
               ~block_hash:c.c_block_hash)
            c.c_multisig
        then begin
          let s = claim t round in
          let e = find_or_create_entry s c.c_block_hash in
          (match kind with
          | `Notarization -> e.e_notar_cert <- Some c
          | `Finalization -> e.e_final_cert <- Some c);
          promote_entry t ~round e;
          true
        end
        else false

let add_notarization t c = add_cert t ~kind:`Notarization c
let add_finalization t c = add_cert t ~kind:`Finalization c

let shareset_of t e kind ~proposer =
  match shares_of e kind with
  | Some ss -> ss
  | None ->
      let ss = new_shareset t.system.Icc_crypto.Keygen.n ~proposer in
      (match kind with
      | `Notarization -> e.e_notar_shares <- Some ss
      | `Finalization -> e.e_final_shares <- Some ss);
      ss

(* Once the entry holds a certificate of the share's kind, nothing reads
   the kind's shares any more: the certificate notarizes or finalizes the
   block as soon as it is valid, which rules out [Combinable] and
   [Final_combinable], and [retransmit_set] re-sends the certificate
   instead.  So a covered share is neither verified nor stored; only its
   signer is recorded, which keeps a second copy a no-op.  It still
   reports [true], as a valid share did before: [false] would skip the
   party's [step] and reorder events within a timestamp. *)
let add_share ?(own = false) t ~kind (s : Types.share_msg) =
  Icc_obs.Profile.span "pool.admit" @@ fun () ->
  let round = s.s_round in
  let share = s.s_share in
  let signer = share.signer in
  let in_range = signer >= 1 && signer <= t.system.Icc_crypto.Keygen.n in
  if round < t.pruned_below || round < 0 then false
  else
    let existing = entry_of t (round, s.s_block_hash) in
    let already =
      match Option.bind existing (fun e -> shares_of e kind) with
      | None -> false
      | Some ss -> in_range && ss_mem ss signer
    in
    if already then false
    else
      match existing with
      | Some e when Option.is_some (cert_of e kind) ->
          if in_range then
            ss_mark (shareset_of t e kind ~proposer:s.s_proposer) signer;
          in_range
      | _ ->
          if
            (own && in_range)
            || Icc_crypto.Multisig.verify_share (params_of t kind)
                 (text_of kind ~round ~proposer:s.s_proposer
                    ~block_hash:s.s_block_hash)
                 share
          then begin
            let slot = claim t round in
            let e = find_or_create_entry slot s.s_block_hash in
            ss_add (shareset_of t e kind ~proposer:s.s_proposer)
              ~proposer:s.s_proposer signer share;
            true
          end
          else false

let add_notarization_share ?own t s = add_share ?own t ~kind:`Notarization s
let add_finalization_share ?own t s = add_share ?own t ~kind:`Finalization s

(* A share is admitted unverified: the beacon needs only the t+1 lowest
   valid signers, and {!verified_beacon_shares} checks those when it
   combines.  Shares whose signer is outside 1..n are never stored.  The
   signer slot discipline guards against spoofing (a Byzantine party
   replaying garbage under an honest signer id to block the genuine
   share):

   - empty slot: store the share, unverified;
   - verified occupant, or a byte-equal copy of the occupant: no new
     information, and nothing to verify;
   - a different share for an unverified occupant: with a verifier,
     re-check the occupant first — if it verifies, mark it and report no
     new information; if it is garbage, replace it by the newcomer iff the
     newcomer verifies.  Without one, keep the occupant;
     {!verified_beacon_shares} evicts it if it fails, freeing the slot for
     a genuine retransmission. *)
let add_beacon_share ?(own = false) t ~round ?verify
    (share : Icc_crypto.Threshold_vuf.signature_share) =
  Icc_obs.Profile.span "pool.admit" @@ fun () ->
  let signer = share.Icc_crypto.Threshold_vuf.signer in
  if
    round < t.pruned_below || round < 0 || signer < 1
    || signer > t.system.Icc_crypto.Keygen.n
  then false
  else
    let existing =
      match find_slot t round with
      | Some s when Array.length s.s_beacon > 0 -> s.s_beacon.(signer)
      | Some _ | None -> None
    in
    match (existing, verify) with
    | None, _ ->
        let s = claim t round in
        if Array.length s.s_beacon = 0 then
          s.s_beacon <- Array.make (t.system.Icc_crypto.Keygen.n + 1) None;
        let e = { be_share = share; be_verified = own } in
        s.s_beacon.(signer) <- Some e;
        s.s_beacon_list <- e :: s.s_beacon_list;
        true
    | Some e, _
      when e.be_verified
           || Icc_crypto.Threshold_vuf.share_equal e.be_share share ->
        false
    | Some _, None -> false
    | Some e, Some verify ->
        if verify e.be_share then begin
          e.be_verified <- true;
          false
        end
        else if own || verify share then begin
          (* evict the spoofed occupant, in place *)
          e.be_share <- share;
          e.be_verified <- true;
          true
        end
        else false

(* Walk the slots in signer order, verifying unverified occupants and
   evicting failures, until t+1 valid shares are found: exactly the t+1
   lowest-index valid shares [Threshold_vuf.select] keeps.  Signers above
   the cut are never verified. *)
let verified_beacon_shares t ~round ~verify =
  let need = t.system.Icc_crypto.Keygen.t + 1 in
  match find_slot t round with
  | Some s when List.length s.s_beacon_list >= need ->
      let rec walk signer k =
        if k = need || signer >= Array.length s.s_beacon then []
        else
          match s.s_beacon.(signer) with
          | None -> walk (signer + 1) k
          | Some e when e.be_verified || verify e.be_share ->
              e.be_verified <- true;
              e.be_share :: walk (signer + 1) (k + 1)
          | Some _ ->
              (* evicted: free the signer slot for a genuine retransmission *)
              s.s_beacon.(signer) <- None;
              s.s_beacon_list <-
                List.filter
                  (fun e ->
                    e.be_share.Icc_crypto.Threshold_vuf.signer <> signer)
                  s.s_beacon_list;
              walk (signer + 1) k
      in
      walk 1 0
  | Some _ | None -> []

(* --- garbage collection ------------------------------------------------ *)

let fold_live t f acc =
  Array.fold_left (fun acc s -> if s.s_round >= 0 then f acc s else acc) acc t.slots

let stored_blocks t =
  fold_live t (fun acc s -> acc + List.length s.s_blocks) 0

let table_sizes t =
  let live = fold_live t (fun acc _ -> acc + 1) 0 in
  let entries = fold_live t (fun acc s -> acc + List.length s.s_entries) 0 in
  let count f = fold_live t (fun acc s -> acc + f s) 0 in
  let count_entries f =
    count (fun s ->
        List.fold_left (fun acc e -> if f e then acc + 1 else acc) 0 s.s_entries)
  in
  let sum_shares which =
    count (fun s ->
        List.fold_left
          (fun acc e ->
            match which e with None -> acc | Some ss -> acc + ss.ss_count)
          0 s.s_entries)
  in
  [
    ("ring_capacity", Array.length t.slots);
    ("live_slots", live);
    ("entries", entries);
    ("blocks", stored_blocks t);
    ("authentic", count_entries (fun e -> Option.is_some e.e_auth));
    ("notar_shares", sum_shares (fun e -> e.e_notar_shares));
    ("notar_certs", count_entries (fun e -> Option.is_some e.e_notar_cert));
    ("final_shares", sum_shares (fun e -> e.e_final_shares));
    ("final_certs", count_entries (fun e -> Option.is_some e.e_final_cert));
    ("beacon_shares", count (fun s -> List.length s.s_beacon_list));
    ("valid", count_entries (fun e -> e.e_valid));
    ("notarized", count_entries (fun e -> e.e_notarized));
    ("finalized", count_entries (fun e -> e.e_finalized));
  ]

(* Discard all per-round state for rounds below [below] (paper §3.1: "the
   protocol can be optimized so that messages that are no longer relevant
   may [be] discarded", with checkpointing as in PBFT).  Safe once every
   round below the horizon is finalized: new blocks only ever extend
   notarized blocks at the current frontier, and Fig. 2 only outputs
   segments above kmax.

   The sweep is one pass over the ring in index order — deterministic by
   construction, with no Hashtbl iteration anywhere — and clears whole
   slots, including entries whose block never arrived and beacon shares
   for rounds holding no blocks.  [pruned_below] then keeps pruned rounds
   from being re-admitted. *)
let prune t ~below =
  if below > t.pruned_below then t.pruned_below <- below;
  Array.iter
    (fun s -> if s.s_round >= 0 && s.s_round < below then clear_slot s)
    t.slots

(* --- resync retransmission --------------------------------------------- *)

let beacon_share_msgs t ~round =
  List.map
    (fun (sh : Icc_crypto.Threshold_vuf.signature_share) ->
      Message.Beacon_share
        {
          b_round = round;
          b_signer = sh.Icc_crypto.Threshold_vuf.signer;
          b_share = sh;
        })
    (beacon_shares t round)

(* Everything this pool can re-send for one round, as the original wire
   messages, so a lagging peer admits them through the ordinary verified
   path.  Every proposal bundle we hold is resent: a peer that lost the
   round's lowest-ranked block can only notarize once it has that block,
   whatever else it holds.  Shares are resent only where no certificate
   subsumes them, and only for blocks we hold (the share text needs the
   proposer, which only the block names). *)
let retransmit_set t ~round =
  let blocks = slot_blocks t round in
  let proposals =
    List.filter_map
      (fun e ->
        match (e.e_block, e.e_auth) with
        | Some b, Some auth ->
            if round = 1 then
              Some
                (Message.Proposal
                   {
                     Message.p_block = b;
                     p_authenticator = auth;
                     p_parent_cert = None;
                   })
            else begin
              match notarization_cert t (round - 1, b.Block.parent_hash) with
              | Some cert ->
                  Some
                    (Message.Proposal
                       {
                         Message.p_block = b;
                         p_authenticator = auth;
                         p_parent_cert = Some cert;
                       })
              | None -> None (* cannot form a well-formed bundle yet *)
            end
        | _ -> None)
      blocks
  in
  let certs_and_shares which_cert which_shares mk_cert mk_share =
    List.concat_map
      (fun e ->
        match which_cert e with
        | Some cert -> [ mk_cert cert ]
        | None -> (
            match (e.e_block, which_shares e) with
            | Some b, Some ss ->
                List.map
                  (fun share ->
                    mk_share
                      {
                        Types.s_round = round;
                        s_proposer = b.Block.proposer;
                        s_block_hash = e.e_hash;
                        s_share = share;
                      })
                  ss.ss_items
            | _ -> []))
      blocks
  in
  let notar =
    certs_and_shares
      (fun e -> e.e_notar_cert)
      (fun e -> e.e_notar_shares)
      (fun c -> Message.Notarization c)
      (fun s -> Message.Notarization_share s)
  in
  let final =
    certs_and_shares
      (fun e -> e.e_final_cert)
      (fun e -> e.e_final_shares)
      (fun c -> Message.Finalization c)
      (fun s -> Message.Finalization_share s)
  in
  proposals @ notar @ final @ beacon_share_msgs t ~round

(* --- condition-(a) and finalization-subprotocol queries ---------------- *)

let quorum t = t.system.Icc_crypto.Keygen.n - t.system.Icc_crypto.Keygen.t

let round_completion t round =
  let blocks = slot_blocks t round in
  let notarized =
    List.find_map
      (fun e ->
        if e.e_notarized then
          match (e.e_block, e.e_notar_cert) with
          | Some b, Some c -> Some (Already_notarized (b, c))
          | _ -> None
        else None)
      blocks
  in
  match notarized with
  | Some _ as r -> r
  | None ->
      List.find_map
        (fun e ->
          if
            e.e_valid
            && (not e.e_notarized)
            && (match e.e_notar_shares with
               | None -> false
               | Some ss -> ss.ss_count >= quorum t)
          then
            match e.e_block with
            | Some b ->
                let shares =
                  match e.e_notar_shares with
                  | Some ss -> ss.ss_items
                  | None -> []
                in
                Some (Combinable (b, shares))
            | None -> None
          else None)
        blocks

(* One round's contribution to the Fig. 2 scan. *)
let fin_hit t round =
  List.find_map
    (fun e ->
      if not e.e_valid then None
      else if e.e_finalized then
        match (e.e_block, e.e_final_cert) with
        | Some b, Some c -> Some (Final_cert (b, c))
        | _ -> None
      else if
        match e.e_final_shares with
        | None -> false
        | Some ss -> ss.ss_count >= quorum t
      then
        match e.e_block with
        | Some b ->
            let shares =
              match e.e_final_shares with Some ss -> ss.ss_items | None -> []
            in
            Some (Final_combinable (b, shares))
        | None -> None
      else None)
    (slot_blocks t round)

(* Finalization subprotocol (Fig. 2): the smallest round above [kmax] that
   can be finished, either via a finalization certificate on a valid block
   or via a full set of finalization shares on a valid block. *)
let finalization_step t ~kmax =
  let rec scan round =
    if round > t.max_round then None
    else
      match fin_hit t round with Some _ as r -> r | None -> scan (round + 1)
  in
  scan (kmax + 1)
