(* Parallel-verify smoke: run Schnorr / DLEQ / multisig verification,
   with the fixed-base cache and Fp fast path enabled and Registry
   counters and Profile spans live, from several concurrent domains,
   and check every domain agrees with the sequential baseline.  This
   exercises the runtime synchronisation of DESIGN.md §3.9 (Atomic
   toggles and counters, the domain-local fixed-base cache, Profile's
   domain-local state and lock).

   The CI `tsan-smoke` job runs it under a ThreadSanitizer compiler
   variant: an unsynchronized access shows up there as a TSan report
   (and, for the cache hazards, as nondeterministic verdicts). *)

let domains = 4
let sigs_per_domain = 24

let () =
  let rng = Icc_sim.Rng.create 0x5eed in
  let rand_bits () = Icc_sim.Rng.bits61 rng in
  (* Exercise the observability layer concurrently too. *)
  Icc_obs.Profile.set_enabled true;
  (* Fixture material, prepared sequentially before any spawn. *)
  let keys = Array.init domains (fun _ -> Icc_crypto.Schnorr.keygen rand_bits) in
  let msgs =
    Array.init domains (fun d ->
        Array.init sigs_per_domain (Printf.sprintf "block %d/%d" d))
  in
  let sigs =
    Array.mapi
      (fun d (sk, _) -> Array.map (Icc_crypto.Schnorr.sign sk) msgs.(d))
      keys
  in
  let exponent = Icc_crypto.Group.random_scalar rand_bits in
  let base2 =
    Icc_crypto.Group.hash_to_group (Icc_crypto.Sha256.digest_string "beacon")
  in
  let a = Icc_crypto.Group.base_pow exponent in
  let b = Icc_crypto.Group.pow base2 exponent in
  let dleq =
    Icc_crypto.Dleq.prove ~base1:Icc_crypto.Group.generator ~base2 ~exponent
      ~msg_tag:"smoke"
  in
  let mparams, msecrets = Icc_crypto.Multisig.setup ~threshold_h:3 ~n:4 rand_bits in
  let mmsg = "finalize height 7" in
  let msig =
    match
      Icc_crypto.Multisig.combine mparams mmsg
        (List.map
           (fun s -> Icc_crypto.Multisig.sign_share mparams s mmsg)
           msecrets)
    with
    | Some s -> s
    | None -> failwith "combine failed"
  in
  let verify_all d =
    let _, pk = keys.(d) in
    let ok = ref true in
    for i = 0 to sigs_per_domain - 1 do
      ok :=
        !ok
        && Icc_crypto.Schnorr.verify pk msgs.(d).(i) sigs.(d).(i)
        && Icc_crypto.Dleq.verify ~base1:Icc_crypto.Group.generator ~base2 ~a
             ~b dleq
        && Icc_crypto.Multisig.verify mparams mmsg msig
    done;
    !ok
  in
  (* Sequential baseline, then the same work fanned across domains. *)
  let baseline = Array.init domains verify_all in
  let handles =
    Array.init domains (fun d -> Domain.spawn (fun () -> verify_all d))
  in
  let parallel = Array.map Domain.join handles in
  Array.iteri
    (fun d ok ->
      if not (Bool.equal ok baseline.(d)) then
        failwith (Printf.sprintf "domain %d disagrees with baseline" d);
      if not ok then failwith (Printf.sprintf "domain %d: verification failed" d))
    parallel;
  (* Counters kept counting atomically across the fan-out. *)
  let verifies =
    Icc_obs.Registry.value Icc_crypto.Counters.schnorr_verifies
  in
  let expected = 2 * domains * sigs_per_domain in
  if verifies < expected then
    failwith
      (Printf.sprintf "schnorr_verifies counter lost updates: %d < %d" verifies
         expected);
  Printf.printf "parallel-verify smoke ok: %d domains x %d sigs\n" domains
    sigs_per_domain
