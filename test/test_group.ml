(* Tests for the Schnorr group: its hash-to-group and scalar maps, the
   fixed-base cache, and the zero-scalar and nudge-class regressions. *)

module G = Icc_crypto.Group
module Counters = Icc_crypto.Counters
module Registry = Icc_obs.Registry

let rng = Icc_sim.Rng.create 0xfeed
let rand_bits () = Icc_sim.Rng.bits61 rng

let test_generator_order () =
  Alcotest.(check int) "g^q = 1" 1
    (Icc_crypto.Fp.pow Icc_crypto.Group.generator Icc_crypto.Group.q
       Icc_crypto.Group.p);
  Alcotest.(check bool) "g != 1" true (Icc_crypto.Group.generator <> 1)

let test_hash_to_group_lands_in_subgroup () =
  for i = 0 to 99 do
    let e =
      Icc_crypto.Group.hash_to_group
        (Icc_crypto.Sha256.digest_string (string_of_int i))
    in
    Alcotest.(check bool)
      (Printf.sprintf "h2g %d in subgroup" i)
      true
      (Icc_crypto.Group.is_element e)
  done

let test_pow_reduces_exponent () =
  let e = Icc_sim.Rng.bits61 rng in
  Alcotest.(check int) "pow mod q"
    (Icc_crypto.Group.pow Icc_crypto.Group.generator e)
    (Icc_crypto.Group.pow Icc_crypto.Group.generator (e mod Icc_crypto.Group.q))

let prop_mul_assoc =
  let arb_elt =
    QCheck.map
      (fun x -> Icc_crypto.Group.base_pow (abs x))
      QCheck.(int_bound 1_000_000_000)
  in
  QCheck.Test.make ~name:"group mul associative" ~count:100
    (QCheck.triple arb_elt arb_elt arb_elt) (fun (a, b, c) ->
      Icc_crypto.Group.mul (Icc_crypto.Group.mul a b) c
      = Icc_crypto.Group.mul a (Icc_crypto.Group.mul b c))

let prop_elt_inv =
  let arb_elt =
    QCheck.map
      (fun x -> Icc_crypto.Group.base_pow (1 + abs x))
      QCheck.(int_bound 1_000_000_000)
  in
  QCheck.Test.make ~name:"group inverse" ~count:100 arb_elt (fun a ->
      Icc_crypto.Group.mul a (Icc_crypto.Group.elt_inv a) = Icc_crypto.Group.one)

(* Fixed-base windowed exponentiation must agree with square-and-multiply
   for every (base, exponent) pair, with the table cache either hot or
   disabled. *)
let prop_pow_cached_matches_pow =
  let arb_elt =
    QCheck.map
      (fun x -> Icc_crypto.Group.base_pow (abs x))
      QCheck.(int_bound 1_000_000_000)
  in
  QCheck.Test.make ~name:"pow_cached = pow" ~count:200
    (QCheck.pair arb_elt QCheck.int) (fun (base, e) ->
      let e = abs e in
      let windowed = Icc_crypto.Group.pow_cached base e in
      Icc_crypto.Group.set_fixed_base false;
      let generic = Icc_crypto.Group.pow_cached base e in
      Icc_crypto.Group.set_fixed_base true;
      windowed = Icc_crypto.Group.pow base e && generic = windowed)

let test_base_pow_uses_generator () =
  Alcotest.(check bool) "fixed base on by default" true
    (Icc_crypto.Group.fixed_base_enabled ());
  for _ = 1 to 50 do
    let e = Icc_sim.Rng.bits61 rng in
    Alcotest.(check int) "base_pow = pow g"
      (Icc_crypto.Group.pow Icc_crypto.Group.generator e)
      (Icc_crypto.Group.base_pow e)
  done;
  (* edge exponents around the subgroup order *)
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "base_pow %d" e)
        (Icc_crypto.Group.pow Icc_crypto.Group.generator e)
        (Icc_crypto.Group.base_pow e))
    [ 0; 1; Icc_crypto.Group.q - 1; Icc_crypto.Group.q; Icc_crypto.Group.q + 1 ]

(* The fixed-base cache is an optimisation toggle: switching it off must
   not change a single generator power (§3.5). *)
let test_base_pow_fixed_base_off () =
  let exps = List.init 64 (fun _ -> G.random_scalar rand_bits) in
  let run () = List.map G.base_pow exps in
  let on = run () in
  G.set_fixed_base false;
  let off = Fun.protect ~finally:(fun () -> G.set_fixed_base true) run in
  Alcotest.(check (list int)) "identical results" on off

let prop_random_scalar_in_range =
  QCheck.Test.make ~name:"random scalars in range" ~count:100 QCheck.unit
    (fun () ->
      let s = Icc_crypto.Group.random_scalar rand_bits in
      s >= 0 && s < Icc_crypto.Group.q)

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

(* The table cache is process-wide, so a run's [fixed_base_tables] count
   depends on what ran before it unless the cache is cleared first, as
   `bench perf` does before each traced run. *)
let test_fixed_base_clear_isolates_runs () =
  let scenario =
    {
      (Icc_core.Runner.default_scenario ~n:4 ~seed:7) with
      Icc_core.Runner.duration = 1e6;
      max_rounds = Some 3;
      delay = Icc_core.Runner.Fixed_delay 0.02;
      epsilon = 0.05;
    }
  in
  let tables ~clear run =
    if clear then G.clear_fixed_base_cache ();
    let t0 = Registry.value Counters.fixed_base_tables in
    ignore (run scenario);
    Registry.value Counters.fixed_base_tables - t0
  in
  let icc1 s = Icc_gossip.Icc1.run s in
  let alone = tables ~clear:true icc1 in
  Alcotest.(check bool) "ICC1 builds tables" true (alone > 0);
  ignore (tables ~clear:true Icc_core.Runner.run);
  Alcotest.(check int) "ICC1 after ICC0" alone (tables ~clear:true icc1);
  Alcotest.(check int) "a warm cache hides them" 0 (tables ~clear:false icc1)

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

(* Golden runs never draw a zero scalar: the rederive branch (whose
   historical remap would have shifted trace bytes) is dead on every
   committed scenario. *)
let test_golden_run_no_zero_rederive () =
  let z0 = Registry.value Counters.zero_rederives in
  let r =
    Icc_core.Runner.run
      {
        (Icc_core.Runner.default_scenario ~n:4 ~seed:31) with
        Icc_core.Runner.duration = 1e6;
        max_rounds = Some 6;
        delay = Icc_core.Runner.Fixed_delay 0.02;
        epsilon = 0.05;
      }
  in
  Alcotest.(check bool) "run decided rounds" true
    (r.Icc_core.Runner.rounds_decided >= 6);
  Alcotest.(check int) "zero_rederives untouched by golden runs" z0
    (Registry.value Counters.zero_rederives)

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

let suite =
  [
    Alcotest.test_case "generator order" `Quick test_generator_order;
    Alcotest.test_case "hash-to-group subgroup" `Quick
      test_hash_to_group_lands_in_subgroup;
    Alcotest.test_case "pow reduces exponent" `Quick test_pow_reduces_exponent;
    QCheck_alcotest.to_alcotest prop_mul_assoc;
    QCheck_alcotest.to_alcotest prop_elt_inv;
    QCheck_alcotest.to_alcotest prop_random_scalar_in_range;
    QCheck_alcotest.to_alcotest prop_pow_cached_matches_pow;
    Alcotest.test_case "base_pow vs generator pow" `Quick
      test_base_pow_uses_generator;
    Alcotest.test_case "base_pow same, fixed-base off" `Quick
      test_base_pow_fixed_base_off;
    Alcotest.test_case "zero-remap: random_scalar_nonzero" `Quick
      test_random_scalar_nonzero;
    Alcotest.test_case "zero-remap: scalar_of_hash_nonzero" `Quick
      test_scalar_of_hash_nonzero_first_derivation;
    Alcotest.test_case "zero-remap: golden runs untouched" `Quick
      test_golden_run_no_zero_rederive;
    Alcotest.test_case "hash-to-group nudge classes" `Quick
      test_residue_nudge_classes;
    Alcotest.test_case "fixed-base clear isolates runs" `Quick
      test_fixed_base_clear_isolates_runs;
    Alcotest.test_case "fixed-base cache saturation" `Slow
      test_fixed_base_saturation;
  ]
