(* Property tests on the pool's promotion cascade.

   The key invariant: classification is a function of the *set* of admitted
   messages, not of their arrival order — the paper's pool semantics (§3.1)
   are declarative, and the event-driven implementation must converge to
   the same fixpoint under any interleaving. *)

let kit = Kit.make ~n:4 ~t:1 ()

(* Build a three-deep certified chain plus an orphan fork, then emit the
   admission steps as first-class operations that can be shuffled. *)
type op = Op of string * (Icc_core.Pool.t -> bool)

let chain_ops () =
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  let b2 = Kit.block ~round:2 ~proposer:2 ~parent:(Some b1) () in
  let b3 = Kit.block ~round:3 ~proposer:3 ~parent:(Some b2) () in
  let fork2 =
    Kit.block
      ~payload:{ Icc_core.Types.commands = []; filler_size = 1 }
      ~round:2 ~proposer:4 ~parent:(Some b1) ()
  in
  let block_ops b =
    [
      Op ( "block", fun pool -> Icc_core.Pool.add_block pool b );
      Op
        ( "auth",
          fun pool ->
            Icc_core.Pool.add_authenticator pool ~round:b.Icc_core.Block.round
              ~proposer:b.Icc_core.Block.proposer
              ~block_hash:(Icc_core.Block.hash b)
              (Kit.authenticator kit b) );
      Op
        ( "cert",
          fun pool ->
            Icc_core.Pool.add_notarization pool
              (Kit.notarization kit b [ 1; 2; 3 ]) );
      Op
        ( "share",
          fun pool ->
            Icc_core.Pool.add_notarization_share pool
              (Kit.notarization_share kit ~signer:4 b) );
    ]
  in
  let final_ops b =
    [
      Op
        ( "final",
          fun pool ->
            Icc_core.Pool.add_finalization pool
              (Kit.finalization kit b [ 1; 2; 4 ]) );
    ]
  in
  ( (b1, b2, b3, fork2),
    block_ops b1 @ block_ops b2 @ block_ops b3 @ block_ops fork2
    @ final_ops b2 )

let classification pool blocks =
  List.map
    (fun b ->
      let key = (b.Icc_core.Block.round, Icc_core.Block.hash b) in
      ( Icc_core.Pool.is_valid pool key,
        Icc_core.Pool.is_notarized pool key,
        Icc_core.Pool.is_finalized pool key,
        Icc_core.Pool.notar_share_count pool key ))
    blocks

(* The part of [classification] no admission order can change: every
   classification bit, and the share count of a block that holds no
   notarization.  Once the certificate is held a share is recorded but not
   stored ([Pool.add_notarization_share]), so there the count says only
   how many shares came before the certificate. *)
let order_free pool blocks =
  List.map2
    (fun b (v, n, f, count) ->
      let key = (b.Icc_core.Block.round, Icc_core.Block.hash b) in
      ( v,
        n,
        f,
        match Icc_core.Pool.notarization_cert pool key with
        | Some _ -> None
        | None -> Some count ))
    blocks
    (classification pool blocks)

let prop_order_invariance =
  QCheck.Test.make ~name:"pool classification is admission-order invariant"
    ~count:60 QCheck.int (fun seed ->
      let (b1, b2, b3, fork2), ops = chain_ops () in
      let blocks = [ b1; b2; b3; fork2 ] in
      (* reference: in-order admission *)
      let reference =
        let pool = Icc_core.Pool.create kit.Kit.system in
        List.iter (fun (Op (_, f)) -> ignore (f pool)) ops;
        order_free pool blocks
      in
      (* shuffled admission *)
      let rng = Icc_sim.Rng.create seed in
      let arr = Array.of_list ops in
      Icc_sim.Rng.shuffle_in_place rng arr;
      let pool = Icc_core.Pool.create kit.Kit.system in
      Array.iter (fun (Op (_, f)) -> ignore (f pool)) arr;
      order_free pool blocks = reference)

let prop_duplicates_are_noops =
  QCheck.Test.make ~name:"pool duplicate admission changes nothing" ~count:30
    QCheck.int (fun seed ->
      let (b1, b2, b3, fork2), ops = chain_ops () in
      let blocks = [ b1; b2; b3; fork2 ] in
      let rng = Icc_sim.Rng.create seed in
      let pool = Icc_core.Pool.create kit.Kit.system in
      List.iter (fun (Op (_, f)) -> ignore (f pool)) ops;
      let before = classification pool blocks in
      (* re-admit a random half again *)
      List.iter
        (fun (Op (_, f)) -> if Icc_sim.Rng.bool rng then ignore (f pool))
        ops;
      classification pool blocks = before)

let prop_monotone =
  QCheck.Test.make ~name:"pool classification is monotone" ~count:30
    QCheck.int (fun seed ->
      let (b1, b2, b3, fork2), ops = chain_ops () in
      let blocks = [ b1; b2; b3; fork2 ] in
      let rng = Icc_sim.Rng.create seed in
      let arr = Array.of_list ops in
      Icc_sim.Rng.shuffle_in_place rng arr;
      let pool = Icc_core.Pool.create kit.Kit.system in
      let stages =
        Array.to_list
          (Array.map
             (fun (Op (_, f)) ->
               ignore (f pool);
               classification pool blocks)
             arr)
      in
      (* each classification bit only ever turns on *)
      let le a b =
        List.for_all2
          (fun (v1, n1, f1, s1) (v2, n2, f2, s2) ->
            (not v1 || v2) && (not n1 || n2) && (not f1 || f2) && s1 <= s2)
          a b
      in
      let rec pairs = function
        | a :: (b :: _ as rest) -> le a b && pairs rest
        | _ -> true
      in
      pairs stages)

(* --- verify once per party -------------------------------------------

   The pool answers a repeated (signer, text, signature) triple from the
   shares and certificates it already holds, and once it holds a
   certificate of a kind it no longer verifies or stores that kind's
   shares: it records the signer and reports the admission.  The property
   below checks that neither changes an answer: random interleavings of
   shares, certificates and combines for one block — forged signatures,
   signatures by the wrong signer, shares naming the wrong proposer,
   certificates with forged members — give the same verdicts as a
   memo-free reference that calls [Multisig.verify_share]/[verify]
   directly and applies the same certificate rule. *)

module Multisig = Icc_crypto.Multisig

let memo_block = Kit.block ~round:1 ~proposer:1 ~parent:None ()
let memo_key = (1, Icc_core.Block.hash memo_block)

let params kind =
  match kind with
  | `Notarization -> kit.Kit.system.Icc_crypto.Keygen.notary
  | `Finalization -> kit.Kit.system.Icc_crypto.Keygen.final

let text kind ~proposer =
  let block_hash = Icc_core.Block.hash memo_block in
  match kind with
  | `Notarization -> Icc_core.Types.notarization_text ~round:1 ~proposer ~block_hash
  | `Finalization -> Icc_core.Types.finalization_text ~round:1 ~proposer ~block_hash

let sign kind ~signer ~proposer =
  let k = Kit.key kit signer in
  Multisig.sign_share (params kind)
    (match kind with
    | `Notarization -> k.Icc_crypto.Keygen.notary_key
    | `Finalization -> k.Icc_crypto.Keygen.final_key)
    (text kind ~proposer)

type variant = Genuine | Forged | Wrong_signer | Wrong_proposer

(* The proposer a [Wrong_proposer] member names instead of [proposer]. *)
let other_proposer proposer = if proposer = 1 then 2 else 1

(* [signer]'s share on the text naming [proposer], spoiled by [variant]:
   [Wrong_proposer] is a genuine signature on the text naming
   [other_proposer proposer]. *)
let member kind ~signer ~proposer variant : Multisig.share =
  match variant with
  | Genuine -> sign kind ~signer ~proposer
  | Forged ->
      let sh = sign kind ~signer ~proposer in
      let g = sh.signature in
      {
        sh with
        signature =
          {
            g with
            response = Icc_crypto.Group.scalar_add g.Icc_crypto.Schnorr.response 1;
          };
      }
  | Wrong_signer -> { (sign kind ~signer:((signer mod 4) + 1) ~proposer) with signer }
  | Wrong_proposer -> sign kind ~signer ~proposer:(other_proposer proposer)

let share_msg ~proposer sh =
  {
    Icc_core.Types.s_round = 1;
    s_proposer = proposer;
    s_block_hash = Icc_core.Block.hash memo_block;
    s_share = sh;
  }

let cert_msg ~proposer multisig =
  {
    Icc_core.Types.c_round = 1;
    c_proposer = proposer;
    c_block_hash = Icc_core.Block.hash memo_block;
    c_multisig = multisig;
  }

(* The memo-free reference: per kind, the stored shares (newest first),
   every signer admitted, and the certificate. *)
type reference = {
  mutable r_shares : ([ `Notarization | `Finalization ] * Multisig.share) list;
  mutable r_seen : ([ `Notarization | `Finalization ] * int) list;
  mutable r_certs : [ `Notarization | `Finalization ] list;
}

let empty_reference () = { r_shares = []; r_seen = []; r_certs = [] }

(* A share after its kind's certificate: an in-range signer is admitted
   without a check and not stored. *)
let ref_add_share r kind ~proposer (sh : Multisig.share) =
  let admit ~store =
    if store then r.r_shares <- (kind, sh) :: r.r_shares;
    r.r_seen <- (kind, sh.signer) :: r.r_seen;
    true
  in
  if List.mem (kind, sh.signer) r.r_seen then false
  else if List.mem kind r.r_certs then
    sh.signer >= 1 && sh.signer <= 4 && admit ~store:false
  else
    Multisig.verify_share (params kind) (text kind ~proposer) sh
    && admit ~store:true

let ref_add_cert r kind ~proposer ms =
  if List.mem kind r.r_certs then false
  else if Multisig.verify (params kind) (text kind ~proposer) ms then begin
    r.r_certs <- kind :: r.r_certs;
    true
  end
  else false

let pool_add_share pool kind ~proposer sh =
  match kind with
  | `Notarization ->
      Icc_core.Pool.add_notarization_share pool (share_msg ~proposer sh)
  | `Finalization ->
      Icc_core.Pool.add_finalization_share pool (share_msg ~proposer sh)

let pool_add_cert pool kind ~proposer ms =
  match kind with
  | `Notarization -> Icc_core.Pool.add_notarization pool (cert_msg ~proposer ms)
  | `Finalization -> Icc_core.Pool.add_finalization pool (cert_msg ~proposer ms)

let pool_shares pool kind =
  match kind with
  | `Notarization -> Icc_core.Pool.notar_shares pool memo_key
  | `Finalization -> Icc_core.Pool.final_shares pool memo_key

let variants = [ Genuine; Genuine; Forged; Wrong_signer; Wrong_proposer ]

(* One random step, run against the pool and the reference; [true] when
   both give the same answer.  Proposer -1 is what a Byzantine peer can
   put on the wire (the codec decodes any int); it must never match a
   share set whose members disagree on the proposer. *)
let memo_step rng pool r =
  let kind = if Icc_sim.Rng.bool rng then `Notarization else `Finalization in
  let proposer =
    match Icc_sim.Rng.int rng 6 with 0 -> 2 | 1 -> -1 | _ -> 1
  in
  match Icc_sim.Rng.int rng 3 with
  | 0 ->
      let sh =
        member kind ~signer:(1 + Icc_sim.Rng.int rng 4) ~proposer
          (Icc_sim.Rng.pick rng variants)
      in
      pool_add_share pool kind ~proposer sh = ref_add_share r kind ~proposer sh
  | 1 ->
      (* a certificate over a random sorted signer set (possibly below
         threshold), each member drawn from the variants *)
      let signers =
        List.filter (fun _ -> Icc_sim.Rng.int rng 4 > 0) [ 1; 2; 3; 4 ]
      in
      let ms =
        {
          Multisig.signers;
          signatures =
            List.map
              (fun signer ->
                (member kind ~signer ~proposer (Icc_sim.Rng.pick rng variants))
                  .signature)
              signers;
        }
      in
      pool_add_cert pool kind ~proposer ms = ref_add_cert r kind ~proposer ms
  | _ ->
      (* Fig. 1 (a) / Fig. 2: combine the pooled shares, then admit the
         result, as Party does *)
      let shares = pool_shares pool kind in
      let with_memo =
        Multisig.combine
          ~known:(Icc_core.Pool.known_share pool kind memo_key ~proposer)
          (params kind) (text kind ~proposer) shares
      in
      let without = Multisig.combine (params kind) (text kind ~proposer) shares in
      with_memo = without
      &&
      match with_memo with
      | None -> true
      | Some ms ->
          pool_add_cert pool kind ~proposer ms = ref_add_cert r kind ~proposer ms

let prop_memo_verdicts =
  QCheck.Test.make
    ~name:"verify-once memo: verdicts equal a memo-free reference" ~count:150
    QCheck.int (fun seed ->
      let rng = Icc_sim.Rng.create seed in
      let pool = Icc_core.Pool.create kit.Kit.system in
      let r = empty_reference () in
      let steps = 4 + Icc_sim.Rng.int rng 16 in
      let ok = ref true in
      for _ = 1 to steps do
        if not (memo_step rng pool r) then ok := false
      done;
      !ok
      && List.for_all
           (fun kind ->
             List.map
               (fun (sh : Multisig.share) -> sh.signer)
               (pool_shares pool kind)
             = List.filter_map
                 (fun (k, (sh : Multisig.share)) ->
                   if k = kind then Some sh.signer else None)
                 r.r_shares)
           [ `Notarization; `Finalization ])

let verifies () =
  Icc_obs.Registry.value Icc_crypto.Counters.schnorr_verifies

(* Everything [Party] and the resync layer read from the pool about
   [memo_block]'s round. *)
let views pool =
  let key = memo_key in
  ( ( Icc_core.Pool.notar_shares pool key,
      Icc_core.Pool.notar_share_count pool key,
      Icc_core.Pool.final_shares pool key,
      Icc_core.Pool.final_share_count pool key ),
    ( Icc_core.Pool.notarization_cert pool key,
      Icc_core.Pool.finalization_cert pool key,
      Icc_core.Pool.is_valid pool key,
      Icc_core.Pool.is_notarized pool key,
      Icc_core.Pool.is_finalized pool key ),
    ( Icc_core.Pool.round_completion pool 1,
      Icc_core.Pool.finalization_step pool ~kmax:0,
      Icc_core.Pool.retransmit_set pool ~round:1,
      Icc_core.Pool.table_sizes pool ) )

(* A pool holding [memo_block] with its authenticator, so the block is
   valid and the round's views and retransmit set are populated. *)
let pool_with_block () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  ignore (Icc_core.Pool.add_block pool memo_block);
  ignore
    (Icc_core.Pool.add_authenticator pool ~round:1 ~proposer:1
       ~block_hash:(Icc_core.Block.hash memo_block)
       (Kit.authenticator kit memo_block));
  pool

(* After its kind's certificate, [sh] is admitted at no verify, is not
   stored, and changes no view; a second copy is a no-op. *)
let check_covered pool kind ~proposer what sh =
  let before = views pool and v0 = verifies () in
  Alcotest.(check bool) (what ^ ": admitted") true
    (pool_add_share pool kind ~proposer sh);
  Alcotest.(check int) (what ^ ": no verify") 0 (verifies () - v0);
  Alcotest.(check bool) (what ^ ": views unchanged") true (views pool = before);
  Alcotest.(check bool) (what ^ ": copy is a no-op") false
    (pool_add_share pool kind ~proposer sh)

let test_shares_then_cert_costs_nothing () =
  let pool = pool_with_block () in
  List.iter
    (fun signer ->
      let sh = member `Notarization ~signer ~proposer:1 Genuine in
      Alcotest.(check bool) "share admitted" true
        (pool_add_share pool `Notarization ~proposer:1 sh))
    [ 1; 2; 3 ];
  let before = verifies () in
  let ms =
    Multisig.combine
      ~known:(Icc_core.Pool.known_share pool `Notarization memo_key ~proposer:1)
      (params `Notarization) (text `Notarization ~proposer:1)
      (pool_shares pool `Notarization)
  in
  (match ms with
  | None -> Alcotest.fail "combine at quorum failed"
  | Some ms ->
      Alcotest.(check bool) "certificate admitted" true
        (pool_add_cert pool `Notarization ~proposer:1 ms));
  Alcotest.(check int) "combine + admission verify nothing" 0
    (verifies () - before);
  (* a share naming another proposer, after the certificate *)
  check_covered pool `Notarization ~proposer:2 "other proposer"
    (member `Notarization ~signer:4 ~proposer:2 Genuine)

let test_cert_then_shares_costs_nothing () =
  let pool = pool_with_block () in
  let cert = Kit.finalization kit memo_block [ 1; 2; 3 ] in
  let before = verifies () in
  Alcotest.(check bool) "certificate admitted" true
    (Icc_core.Pool.add_finalization pool cert);
  Alcotest.(check int) "three members verified" 3 (verifies () - before);
  List.iter
    (fun signer ->
      check_covered pool `Finalization ~proposer:1
        (Printf.sprintf "member %d" signer)
        (member `Finalization ~signer ~proposer:1 Genuine))
    [ 1; 2; 3 ];
  check_covered pool `Finalization ~proposer:1 "non-member forgery"
    (member `Finalization ~signer:4 ~proposer:1 Forged);
  Alcotest.(check bool) "out-of-range signer rejected" false
    (pool_add_share pool `Finalization ~proposer:1
       { (member `Finalization ~signer:1 ~proposer:1 Genuine) with signer = 5 })

(* A mixed share set (one Byzantine share names proposer -1) must not
   vouch for a proposer -1 certificate made of honest members copied from
   proposer-1 shares: the Schnorr equation over the -1 text rejects them. *)
let test_mixed_set_vouches_for_nothing () =
  let pool = Icc_core.Pool.create kit.Kit.system in
  let r = empty_reference () in
  let add ~signer ~proposer =
    let sh = member `Notarization ~signer ~proposer Genuine in
    Alcotest.(check bool) "share verdict = reference"
      (ref_add_share r `Notarization ~proposer sh)
      (pool_add_share pool `Notarization ~proposer sh)
  in
  add ~signer:1 ~proposer:1;
  add ~signer:4 ~proposer:(-1);
  add ~signer:2 ~proposer:1;
  add ~signer:3 ~proposer:1;
  let honest =
    List.map
      (fun signer -> (member `Notarization ~signer ~proposer:1 Genuine).signature)
      [ 1; 2; 3 ]
  in
  let ms = { Multisig.signers = [ 1; 2; 3 ]; signatures = honest } in
  Alcotest.(check bool) "relabelled certificate rejected" false
    (pool_add_cert pool `Notarization ~proposer:(-1) ms);
  Alcotest.(check bool) "reference agrees" false
    (ref_add_cert r `Notarization ~proposer:(-1) ms);
  Alcotest.(check bool) "genuine certificate still admitted" true
    (pool_add_cert pool `Notarization ~proposer:1 ms)

(* --- lazy beacon-share verification ---------------------------------------

   Random share multisets for one round at n = 7, t = 2: per signer an
   honest share, spoofs (signed over another round's text) or both, each
   with random byte-equal duplicates, plus shares naming signers outside
   1..n, admitted in random order.  The lazy pool must select what an eager
   reference selects: verify every share, dedupe by signer, keep the t+1
   lowest.  With a verifier at admission, contested slots resolve to the
   genuine share, so the reference is over every arrival; without one the
   first share per signer holds its slot.  Verification cost: at most t+1
   valid shares plus the invalid ones below the cut, and with a verifier
   at most two more per spoof arrival (resolving the slot it contests). *)

let vuf_kit = Kit.make ~n:7 ~t:2 ()
let vuf_params = vuf_kit.Kit.system.Icc_crypto.Keygen.beacon

let beacon_text round =
  Icc_core.Types.beacon_text ~round ~prev_sigma:Icc_core.Types.beacon_genesis

let vuf_share ~signer ~round =
  Icc_crypto.Threshold_vuf.sign_share vuf_params
    (Kit.key vuf_kit signer).Icc_crypto.Keygen.beacon_key (beacon_text round)

let vuf_verify = Icc_crypto.Threshold_vuf.verify_share vuf_params (beacon_text 1)

let vuf_signers l = List.map (fun sh -> sh.Icc_crypto.Threshold_vuf.signer) l

let random_arrivals rng =
  let spoof_rate = Icc_sim.Rng.pick rng [ 0; 0; 1; 2 ] in
  let copies share = List.init (1 + Icc_sim.Rng.int rng 3) (fun _ -> share) in
  let per_signer signer =
    (if Icc_sim.Rng.int rng 4 > 0 then copies (vuf_share ~signer ~round:1)
     else [])
    @ List.concat_map
        (fun round ->
          if Icc_sim.Rng.int rng 4 < spoof_rate then
            copies (vuf_share ~signer ~round)
          else [])
        [ 9; 10 ]
  in
  let out_of_range =
    List.map
      (fun signer -> { (vuf_share ~signer:1 ~round:1) with signer })
      [ 0; 8; -3; 1000 ]
  in
  let arr =
    Array.of_list (List.concat_map per_signer [ 1; 2; 3; 4; 5; 6; 7 ] @ out_of_range)
  in
  Icc_sim.Rng.shuffle_in_place rng arr;
  Array.to_list arr

let prop_lazy_beacon_selection =
  QCheck.Test.make
    ~name:"lazy beacon shares: eager selection, at most t+1 + invalid verifies"
    ~count:200
    QCheck.(pair bool int)
    (fun (with_verifier, seed) ->
      let rng = Icc_sim.Rng.create seed in
      let arrivals = random_arrivals rng in
      let in_range =
        List.filter
          (fun sh ->
            let s = sh.Icc_crypto.Threshold_vuf.signer in
            s >= 1 && s <= 7)
          arrivals
      in
      let held =
        if with_verifier then in_range
        else
          List.filter_map
            (fun signer ->
              List.find_opt
                (fun sh -> sh.Icc_crypto.Threshold_vuf.signer = signer)
                in_range)
            [ 1; 2; 3; 4; 5; 6; 7 ]
      in
      let reference =
        Option.map
          (fun (sg : Icc_crypto.Threshold_vuf.signature) -> sg.certificate)
          (Icc_crypto.Threshold_vuf.combine vuf_params (beacon_text 1) held)
      in
      let cut =
        match reference with
        | Some cert -> List.fold_left max 0 (vuf_signers cert)
        | None -> max_int
      in
      let spoofs = List.filter (fun sh -> not (vuf_verify sh)) in_range in
      let spoofs_below_cut =
        List.length
          (List.filter (fun sh -> sh.Icc_crypto.Threshold_vuf.signer < cut) spoofs)
      in
      let count () =
        Icc_obs.Registry.value Icc_crypto.Counters.dleq_verifies
      in
      let before = count () in
      let pool = Icc_core.Pool.create vuf_kit.Kit.system in
      let verify = if with_verifier then Some vuf_verify else None in
      List.iter
        (fun sh -> ignore (Icc_core.Pool.add_beacon_share pool ~round:1 ?verify sh))
        arrivals;
      let chosen =
        Icc_core.Pool.verified_beacon_shares pool ~round:1 ~verify:vuf_verify
      in
      let spent = count () - before in
      let bound =
        3 + spoofs_below_cut
        + if with_verifier then 2 * List.length spoofs else 0
      in
      (match reference with
       | Some cert -> vuf_signers chosen = vuf_signers cert
       | None -> List.length chosen < 3)
      && List.for_all vuf_verify chosen
      && spent <= bound)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lazy_beacon_selection;
    QCheck_alcotest.to_alcotest prop_order_invariance;
    QCheck_alcotest.to_alcotest prop_duplicates_are_noops;
    QCheck_alcotest.to_alcotest prop_monotone;
    QCheck_alcotest.to_alcotest prop_memo_verdicts;
    Alcotest.test_case "memo: shares then certificate" `Quick
      test_shares_then_cert_costs_nothing;
    Alcotest.test_case "memo: certificate then shares" `Quick
      test_cert_then_shares_costs_nothing;
    Alcotest.test_case "memo: mixed share set vouches for nothing" `Quick
      test_mixed_set_vouches_for_nothing;
  ]
