(* Signature verification (DESIGN.md §3.10): Pippenger multi-exp,
   culprit identification in multisig share sets, the RLC batch
   equation for DLEQ, and the crypto-layer bugfix regressions that rode
   along (fixed-base cache saturation, zero-scalar remap bias,
   hash-to-group nudge collapse). *)

module G = Icc_crypto.Group
module Batch = Icc_crypto.Batch
module Schnorr = Icc_crypto.Schnorr
module Multisig = Icc_crypto.Multisig
module Dleq = Icc_crypto.Dleq
module Counters = Icc_crypto.Counters
module Registry = Icc_obs.Registry

let rng = Icc_sim.Rng.create 0xba7c
let rand_bits () = Icc_sim.Rng.bits61 rng

(* Every test that flips a toggle restores the defaults, pass or fail —
   later suites (and the golden runs) assume them. *)
let with_toggles f () =
  Fun.protect
    ~finally:(fun () ->
      Batch.set_batch_verify true;
      Batch.set_max_chunk 64)
    f

(* ------------------------------------------------------- multi_exp *)

let arb_elt =
  QCheck.map (fun x -> G.base_pow (abs x)) QCheck.(int_bound 1_000_000_000)

let prop_multi_exp_naive =
  let arb =
    QCheck.list_of_size (QCheck.Gen.int_bound 40)
      (QCheck.pair arb_elt QCheck.int)
  in
  QCheck.Test.make ~name:"multi_exp = naive product of pows" ~count:100 arb
    (fun pairs ->
      let pairs =
        Array.of_list (List.map (fun (b, e) -> (b, abs e)) pairs)
      in
      let naive =
        Array.fold_left (fun acc (b, e) -> G.mul acc (G.pow b e)) G.one pairs
      in
      G.multi_exp pairs = naive)

let test_multi_exp_edges () =
  Alcotest.(check int) "empty product" G.one (G.multi_exp [||]);
  Alcotest.(check int) "zero exponent" G.one (G.multi_exp [| (G.generator, 0) |]);
  Alcotest.(check int) "exponent reduced mod q"
    (G.pow G.generator 5)
    (G.multi_exp [| (G.generator, G.q + 5) |]);
  (* narrow (32-bit) exponents — the batch-coefficient shape *)
  let pairs = Array.init 9 (fun i -> (G.base_pow (i + 2), 0x1234567 * (i + 1))) in
  Alcotest.(check int) "32-bit exponents"
    (Array.fold_left (fun acc (b, e) -> G.mul acc (G.pow b e)) G.one pairs)
    (G.multi_exp pairs)

(* ------------------------------ share-set culprit identification *)

let committee = 8
let mparams, msecrets = Multisig.setup ~threshold_h:1 ~n:committee rand_bits

(* A share on [msg] by party [i mod committee + 1], with tamper class 0
   (honest) .. 4; the classic-form Schnorr.verify behind
   Multisig.verify_share must reject every non-zero class. *)
let share_item msg i tamper =
  let secret = List.nth msecrets (i mod committee) in
  let share = Multisig.sign_share mparams secret msg in
  let sg = share.Multisig.signature in
  match tamper with
  | 1 ->
      { share with
        Multisig.signature =
          { sg with Schnorr.response = G.scalar_add sg.Schnorr.response 1 } }
  | 2 ->
      { share with
        Multisig.signature =
          { sg with Schnorr.challenge = G.scalar_add sg.Schnorr.challenge 1 } }
  | 3 ->
      (* a share of another message presented for this one *)
      Multisig.sign_share mparams secret (msg ^ "?")
  | 4 ->
      (* a genuine signature claimed under another party's index *)
      { share with Multisig.signer = (share.Multisig.signer mod committee) + 1 }
  | _ -> share

(* Share-set verdicts must equal the one-by-one verdicts for any mix of
   honest and forged shares: honest shares accepted, every forgery
   flagged. *)
let prop_verify_shares_matches_singles =
  let arb =
    QCheck.pair
      (QCheck.list_of_size (QCheck.Gen.int_bound 24) (QCheck.int_bound 4))
      QCheck.small_nat
  in
  QCheck.Test.make ~name:"multisig share verdicts = single verdicts" ~count:60
    arb (fun (tampers, m) ->
      let msg = Printf.sprintf "share message %d" m in
      let shares = List.mapi (share_item msg) tampers in
      let verdicts = Multisig.verify_shares mparams msg shares in
      verdicts = List.map (Multisig.verify_share mparams msg) shares
      && verdicts = List.map (fun t -> t = 0) tampers)

let prop_verify_shares_single_forgery_rejected =
  let arb = QCheck.pair (QCheck.int_range 2 30) (QCheck.int_bound 1_000_000) in
  QCheck.Test.make ~name:"multisig shares flag any single forgery" ~count:60
    arb (fun (n, seed) ->
      let bad = seed mod n in
      let msg = Printf.sprintf "share message %d" seed in
      let shares =
        List.init n (fun i ->
            share_item msg i (if i = bad then 1 + (seed mod 4) else 0))
      in
      let verdicts = Multisig.verify_shares mparams msg shares in
      List.length verdicts = n
      && List.for_all Fun.id (List.filteri (fun i _ -> i <> bad) verdicts)
      && not (List.nth verdicts bad))

(* ----------------------------------------------- DLEQ batch verify *)

let beacon_bases () =
  ( G.generator,
    G.hash_to_group (Icc_crypto.Sha256.digest_string "batch test round point") )

let dleq_item ~base1 ~base2 i tamper =
  let x = G.random_scalar rand_bits in
  let proof = Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:(string_of_int i) in
  let a = G.pow base1 x and b = G.pow base2 x in
  match tamper with
  | 1 -> (a, b, { proof with Dleq.response = G.scalar_add proof.Dleq.response 1 })
  | 2 -> (a, b, { proof with Dleq.challenge = G.scalar_add proof.Dleq.challenge 1 })
  | 3 -> (a, G.pow base2 (G.scalar_add x 1), proof)
  | 4 -> (G.mul a G.generator, b, proof)
  | _ -> (a, b, proof)

let prop_dleq_batch_matches_singles =
  let arb =
    QCheck.pair
      (QCheck.list_of_size (QCheck.Gen.int_bound 20) (QCheck.int_bound 4))
      (QCheck.int_range 2 7)
  in
  QCheck.Test.make ~name:"dleq batch verdicts = single verdicts" ~count:40 arb
    (fun (tampers, chunk) ->
      with_toggles
        (fun () ->
          let base1, base2 = beacon_bases () in
          let items = List.mapi (dleq_item ~base1 ~base2) tampers in
          let expected =
            List.map (fun (a, b, p) -> Dleq.verify ~base1 ~base2 ~a ~b p) items
          in
          Batch.set_max_chunk chunk;
          Batch.set_batch_verify true;
          let batched = Dleq.verify_batch ~base1 ~base2 items in
          Batch.set_batch_verify false;
          let unbatched = Dleq.verify_batch ~base1 ~base2 items in
          batched = expected && unbatched = expected)
        ())

let prop_dleq_single_forgery_rejected =
  let arb = QCheck.pair (QCheck.int_range 2 24) (QCheck.int_bound 1_000_000) in
  QCheck.Test.make ~name:"dleq batch flags any single forgery" ~count:40 arb
    (fun (n, seed) ->
      with_toggles
        (fun () ->
          let base1, base2 = beacon_bases () in
          let bad = seed mod n in
          let items =
            List.init n (fun i ->
                dleq_item ~base1 ~base2 i (if i = bad then 1 + (seed mod 4) else 0))
          in
          Batch.set_max_chunk (2 + (seed mod 6));
          let verdicts = Dleq.verify_batch ~base1 ~base2 items in
          List.for_all Fun.id (List.filteri (fun i _ -> i <> bad) verdicts)
          && not (List.nth verdicts bad))
        ())

(* ------------------------------------ fixed-base cache saturation *)

(* Regression for the cache-saturation starvation bug: once 4096 distinct
   bases had tables, every later base — including a brand-new party's key
   after a long run — fell through to generic pow forever.  Now a base
   that keeps missing earns a table through probation (evicting the
   oldest evictable resident), and the generator's table is pinned. *)
let test_fixed_base_saturation () =
  Alcotest.(check bool) "fixed base on" true (G.fixed_base_enabled ());
  (* churn far past the 4096-entry capacity with distinct one-shot bases
     (x -> x^3 permutes the subgroup, so the walk doesn't repeat) *)
  let junk = ref (G.base_pow 12345) in
  for _ = 1 to 4200 do
    junk := G.mul !junk (G.mul !junk !junk);
    ignore (G.pow_cached !junk 3)
  done;
  let hot = G.mul !junk G.generator in
  let e = 987654321 in
  let expect = G.pow hot e in
  let tables0 = Registry.value Counters.fixed_base_tables in
  (* two probation misses: correct results, no table yet *)
  Alcotest.(check int) "probation miss 1 correct" expect (G.pow_cached hot e);
  Alcotest.(check int) "probation miss 2 correct" expect (G.pow_cached hot e);
  Alcotest.(check int) "no table during probation" tables0
    (Registry.value Counters.fixed_base_tables);
  (* third miss promotes: one eviction, one table build *)
  let evict0 = Registry.value Counters.fixed_base_evictions in
  Alcotest.(check int) "promotion call correct" expect (G.pow_cached hot e);
  Alcotest.(check int) "hot base got a table at capacity" (tables0 + 1)
    (Registry.value Counters.fixed_base_tables);
  Alcotest.(check int) "one resident evicted" (evict0 + 1)
    (Registry.value Counters.fixed_base_evictions);
  (* …and subsequent calls are served from it *)
  let fb0 = Registry.value Counters.pow_fixed_base in
  Alcotest.(check int) "served from table" expect (G.pow_cached hot e);
  Alcotest.(check int) "pow_fixed_base bumped" (fb0 + 1)
    (Registry.value Counters.pow_fixed_base);
  (* the generator's pinned table survived the churn *)
  let fb1 = Registry.value Counters.pow_fixed_base in
  ignore (G.base_pow 55555);
  Alcotest.(check int) "generator table pinned through churn" (fb1 + 1)
    (Registry.value Counters.pow_fixed_base)

(* --------------------------------------------- zero-remap bugfixes *)

let test_random_scalar_nonzero () =
  (* a stub RNG whose first draws land on scalar 0: the historical remap
     returned 1 here (doubling its mass); rejection resampling must skip
     to the next draw and count the rederives *)
  let feed = ref [ 0; 0; 42 ] in
  let stub () =
    match !feed with
    | v :: rest ->
        feed := rest;
        v
    | [] -> Alcotest.fail "stub exhausted"
  in
  let z0 = Registry.value Counters.zero_rederives in
  Alcotest.(check int) "skips zero draws" 42 (G.random_scalar_nonzero stub);
  Alcotest.(check int) "two rederives counted" (z0 + 2)
    (Registry.value Counters.zero_rederives);
  (* ordinary draws are passed through untouched *)
  let s = G.random_scalar_nonzero rand_bits in
  Alcotest.(check bool) "in [1, q)" true (s >= 1 && s < G.q)

let test_scalar_of_hash_nonzero_first_derivation () =
  (* the non-zero guarantee must not perturb the ~(1 - 2^-61) of inputs
     that were already fine: first derivation is byte-identical *)
  let z0 = Registry.value Counters.zero_rederives in
  for i = 0 to 199 do
    let d = Icc_crypto.Sha256.digest_string (Printf.sprintf "nz %d" i) in
    Alcotest.(check int)
      (Printf.sprintf "nonzero = plain for digest %d" i)
      (G.scalar_of_hash d)
      (G.scalar_of_hash_nonzero ~tag:"test" d)
  done;
  Alcotest.(check int) "rederive branch never taken" z0
    (Registry.value Counters.zero_rederives)

(* ------------------------------------- hash-to-group nudge classes *)

let test_residue_nudge_classes () =
  (* the degenerate x = p-1 squares to 1; the historical nudge remapped
     it to x = 2, colliding with a live input class.  It now maps to the
     class of 3, distinct from every other class. *)
  Alcotest.(check int) "p-1 remapped to the class of 3"
    (G.residue_to_group 3)
    (G.residue_to_group (G.p - 1));
  Alcotest.(check int) "class of 3 squares to 9" 9 (G.residue_to_group (G.p - 1));
  Alcotest.(check bool) "distinct from the class of 2" true
    (G.residue_to_group (G.p - 1) <> G.residue_to_group 2);
  Alcotest.(check bool) "remapped image in subgroup" true
    (G.is_element (G.residue_to_group (G.p - 1)));
  (* non-degenerate inputs are plainly squared *)
  for x = 2 to 64 do
    Alcotest.(check int)
      (Printf.sprintf "residue %d squared" x)
      (Icc_crypto.Fp.mul x x G.p)
      (G.residue_to_group x);
    Alcotest.(check bool)
      (Printf.sprintf "residue %d in subgroup" x)
      true
      (G.is_element (G.residue_to_group x))
  done

(* --------------------------- toggle trace identity on a golden run *)

let scenario ~seed =
  {
    (Icc_core.Runner.default_scenario ~n:4 ~seed) with
    Icc_core.Runner.duration = 1e6;
    max_rounds = Some 6;
    delay = Icc_core.Runner.Fixed_delay 0.02;
    epsilon = 0.05;
  }

let traced_digest () =
  let tr = Icc_sim.Trace.create () in
  let buf = Buffer.create (1 lsl 16) in
  Icc_sim.Trace.subscribe tr (fun ~time ev ->
      Buffer.add_string buf (Icc_sim.Trace.to_json ~time ev);
      Buffer.add_char buf '\n');
  let r =
    Icc_core.Runner.run
      { (scenario ~seed:31) with Icc_core.Runner.trace = Some tr }
  in
  ( r.Icc_core.Runner.rounds_decided,
    Icc_crypto.Sha256.digest_string (Buffer.contents buf) )

(* Batching is a §3.5 toggle: flipping it may change only wall-clock,
   never a trace byte.  This is the in-tree
   version of the four golden n=16 trace checks run by `bench perf`. *)
let test_toggle_trace_identity () =
  with_toggles
    (fun () ->
      let z0 = Registry.value Counters.zero_rederives in
      Batch.set_batch_verify true;
      let rounds, base = traced_digest () in
      Alcotest.(check bool) "run decided rounds" true (rounds >= 6);
      Batch.set_batch_verify false;
      let _, unbatched = traced_digest () in
      Alcotest.(check string) "batch off: trace byte-identical"
        (base :> string)
        (unbatched :> string);
      (* goldens never draw a zero scalar — the rederive branch (whose
         historical remap would have shifted these very bytes) is dead
         on every committed scenario *)
      Alcotest.(check int) "zero_rederives untouched by golden runs" z0
        (Registry.value Counters.zero_rederives))
    ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_multi_exp_naive;
    Alcotest.test_case "multi_exp edge cases" `Quick test_multi_exp_edges;
    QCheck_alcotest.to_alcotest prop_verify_shares_matches_singles;
    QCheck_alcotest.to_alcotest prop_verify_shares_single_forgery_rejected;
    QCheck_alcotest.to_alcotest prop_dleq_batch_matches_singles;
    QCheck_alcotest.to_alcotest prop_dleq_single_forgery_rejected;
    Alcotest.test_case "zero-remap: random_scalar_nonzero" `Quick
      test_random_scalar_nonzero;
    Alcotest.test_case "zero-remap: scalar_of_hash_nonzero" `Quick
      test_scalar_of_hash_nonzero_first_derivation;
    Alcotest.test_case "hash-to-group nudge classes" `Quick
      test_residue_nudge_classes;
    Alcotest.test_case "toggle trace identity" `Quick
      test_toggle_trace_identity;
    Alcotest.test_case "fixed-base cache saturation" `Slow
      test_fixed_base_saturation;
  ]
