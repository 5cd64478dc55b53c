(* The single-domain runtime (DESIGN §3.9): the toggles and metric cells
   that were once Atomic are plain sequential state and must behave as
   before — Registry counters and gauges keep their values, and the
   module-level fixed-base cache agrees with pow under every toggle
   combination (the §3.5 byte-identity discipline). *)

module Group = Icc_crypto.Group
module Registry = Icc_obs.Registry

let rng = Icc_sim.Rng.create 0xd00d
let rand_bits () = Icc_sim.Rng.bits61 rng

(* The case name predates the switch from Atomic to a mutable field;
   what it checks — inc, add and reset on one counter — is unchanged. *)
let test_registry_atomic_counter () =
  let c = Registry.counter "test_domain.counter" in
  let before = Registry.value c in
  for _ = 1 to 100 do
    Registry.inc c
  done;
  Registry.add c 17;
  Alcotest.(check int) "inc+add" (before + 117) (Registry.value c);
  Registry.reset ();
  Alcotest.(check int) "reset" 0 (Registry.value c)

let test_registry_gauge () =
  let g = Registry.gauge "test_domain.gauge" in
  Registry.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "set" 2.5 (Registry.gauge_value g)

let test_pow_cached_agrees_with_pow () =
  let bases =
    [ Group.generator; Group.base_pow 123; Group.base_pow 9876543 ]
  in
  List.iter
    (fun base ->
      for _ = 1 to 32 do
        let e = Group.random_scalar rand_bits in
        Alcotest.(check bool)
          "pow_cached = pow" true
          (Group.elt_equal (Group.pow_cached base e) (Group.pow base e))
      done)
    bases

let test_fixed_base_toggle_value_identity () =
  (* The fixed-base cache is an optimization toggle: switching it off
     must not change a single value (§3.5). *)
  let exps = List.init 64 (fun _ -> Group.random_scalar rand_bits) in
  let run () = List.map (fun e -> Group.base_pow e) exps in
  Group.set_fixed_base true;
  let on = run () in
  Group.set_fixed_base false;
  let off = run () in
  Group.set_fixed_base true;
  Alcotest.(check bool)
    "identical results" true
    (List.for_all2 Group.elt_equal on off)

let suite =
  [
    Alcotest.test_case "registry atomic counter" `Quick
      test_registry_atomic_counter;
    Alcotest.test_case "registry gauge" `Quick test_registry_gauge;
    Alcotest.test_case "pow_cached agrees with pow" `Quick
      test_pow_cached_agrees_with_pow;
    Alcotest.test_case "fixed-base toggle value identity" `Quick
      test_fixed_base_toggle_value_identity;
  ]
