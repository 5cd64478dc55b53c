(* The five benchmark workloads.  Each one stresses a different layer (see
   README.md for the profile shares that motivated them); all share the
   paper's WAN model and delay functions, and differ in protocol, committee
   size, client load and fault schedule.  A workload only ever receives the
   scenario generated here from the seed. *)

type protocol = Icc0 | Icc1 of { fanout : int } | Icc2

type t = {
  name : string;
  protocol : protocol;
  n : int;
  rate_per_s : float;  (* open-loop client arrivals, jittered by the runner *)
  cmd_size : int;  (* modelled bytes per command *)
  duration : float;  (* simulated seconds per rep *)
  faults : bool;  (* nemesis script + online monitor *)
}

(* The paper's WAN: per-pair one-way delays from RTT ~ U[6 ms, 110 ms],
   with the recommended delay functions at Δbnd = 0.25 s, ε = 0.05 s. *)
let delta_bnd = 0.25
let epsilon = 0.05
let rtt_lo = 0.006
let rtt_hi = 0.110

(* The deployment — the WAN delay matrix and the gossip peer graph — is
   drawn once per committee size from this fixed seed, so the run seed
   varies what a deployment sees from run to run (keys and hence leader
   order, client arrivals, fault draws) rather than its geography, which
   would otherwise dominate the seed-to-seed spread of the simulated
   metrics. *)
let deployment_seed = 2022

let all =
  [
    { name = "icc0-wan-kv"; protocol = Icc0; n = 16; rate_per_s = 200.;
      cmd_size = 256; duration = 20.; faults = false };
    { name = "icc1-gossip-n40"; protocol = Icc1 { fanout = 4 }; n = 40;
      rate_per_s = 50.; cmd_size = 256; duration = 7.; faults = false };
    { name = "icc2-rbc-kv"; protocol = Icc2; n = 16; rate_per_s = 1000.;
      cmd_size = 1024; duration = 8.; faults = false };
    { name = "icc0-nemesis-kv"; protocol = Icc0; n = 16; rate_per_s = 200.;
      cmd_size = 256; duration = 40.; faults = true };
    { name = "icc0-solo-kv"; protocol = Icc0; n = 1; rate_per_s = 2000.;
      cmd_size = 256; duration = 100.; faults = false };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* [--quick] shrinks every rep by this factor, fault schedule included. *)
let quick_scale = 0.2

(* 10% loss on every link over [5, 25) s, a crash–recover of party 3 over
   [10, 15) s, and a healing 8|8 partition over [30, 34) s; [scale]
   compresses the schedule together with the run. *)
let nemesis ~scale =
  let at s = s *. scale in
  Icc_sim.Fault.drop ~from_:(at 5.) ~until:(at 25.) 0.1
  :: Icc_sim.Fault.partition ~from_:(at 30.) ~until:(at 34.)
       [ List.init 8 (fun i -> i + 1); List.init 8 (fun i -> i + 9) ]
  :: Icc_sim.Fault.crash_recover ~party:3 ~down:(at 10.) ~up:(at 15.)

let duration w ~quick = if quick then w.duration *. quick_scale else w.duration

(* The protocol's own transport on the fixed deployment: it replaces the
   delay model the runner sampled from the run seed and the stream the
   gossip layer builds its peer graph from. *)
let inner_transport w : Icc_core.Runner.transport =
  let transport : Icc_core.Runner.transport =
    match w.protocol with
    | Icc0 -> Icc_core.Runner.direct_transport
    | Icc1 { fanout } -> Icc_gossip.Icc1.transport ~fanout ()
    | Icc2 -> Icc_rbc.Icc2.transport ()
  in
  fun ctx ->
    let rng = Icc_sim.Rng.create deployment_seed in
    let matrix = Icc_sim.Network.wan_matrix rng ~n:w.n ~rtt_lo ~rtt_hi in
    transport { ctx with tr_delay_model = Matrix matrix; tr_rng = Icc_sim.Rng.split rng }

(* [make_tag] is called once per command at its due time with the command
   id; [wrap] interposes the benchmark's instrumentation around the
   protocol's own transport; [trace] is the bus the benchmark observes. *)
let scenario w ~seed ~quick ~make_tag ~wrap ~trace : Icc_core.Runner.scenario =
  let scale = if quick then quick_scale else 1. in
  {
    (Icc_core.Runner.default_scenario ~n:w.n ~seed) with
    Icc_core.Runner.delta_bnd;
    epsilon;
    delay = Icc_core.Runner.Wan { rtt_lo; rtt_hi };
    duration = duration w ~quick;
    workload =
      Icc_core.Runner.Tagged_load
        { rate_per_s = w.rate_per_s; cmd_size = w.cmd_size; make_tag };
    transport = Some (wrap (inner_transport w));
    trace = Some trace;
    nemesis = (if w.faults then Some (nemesis ~scale) else None);
    monitor =
      (if w.faults then
         Some (Icc_sim.Monitor.default_config ~delta:delta_bnd ())
       else None);
  }
