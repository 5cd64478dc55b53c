let () =
  Alcotest.run "icc"
    [
      ("fp", Test_fp.suite);
      ("primes", Test_primes.suite);
      ("sha256", Test_sha256.suite);
      ("group", Test_group.suite);
      ("schnorr", Test_schnorr.suite);
      ("shamir", Test_shamir.suite);
      ("dleq", Test_dleq.suite);
      ("vuf", Test_vuf.suite);
      ("multisig", Test_multisig.suite);
      ("dkg", Test_dkg.suite);
      ("merkle", Test_merkle.suite);
      ("sim", Test_sim.suite);
      ("trace", Test_trace.suite);
      ("obs", Test_obs.suite);
      ("domain", Test_domain.suite);
      ("monitor", Test_monitor.suite);
      ("replay", Test_replay.suite);
      ("erasure", Test_erasure.suite);
      ("block", Test_block.suite);
      ("pool", Test_pool.suite);
      ("codec", Test_codec.suite);
      ("pool-properties", Test_pool_properties.suite);
      ("check", Test_check.suite);
      ("beacon", Test_beacon.suite);
      ("icc0", Test_icc0.suite);
      ("party", Test_party.suite);
      ("extensions", Test_extensions.suite);
      ("gossip-unit", Test_gossip_unit.suite);
      ("rbc-unit", Test_rbc_unit.suite);
      ("icc1", Test_icc1.suite);
      ("icc2", Test_icc2.suite);
      ("adversary", Test_adversary.suite);
      ("fault", Test_fault.suite);
      ("streams", Test_streams.suite);
      ("baselines", Test_baselines.suite);
      ("tendermint", Test_tendermint.suite);
      ("smr", Test_smr.suite);
      (* last: its saturation case deliberately churns the process-global
         fixed-base cache past capacity *)
      ("batch", Test_batch.suite);
    ]
