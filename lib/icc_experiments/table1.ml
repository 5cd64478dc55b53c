(* Experiment E1 — the paper's Table 1: average block rate and sent traffic
   per node, for a small (13-node) and a large (40-node) subnet under three
   scenarios: no client load, 100 state-changing requests/s of 1 KB each,
   and the same load with one third of the nodes refusing to participate.

   Parametrization: the paper notes "the current parametrization leads to
   1.1 blocks/s on small subnets and about 0.4 blocks/s on large subnets" —
   a deployment choice.  We mirror it through the governor epsilon (larger
   subnets pace rounds slower) and the delay bound delta_bnd, with the
   observed 6–110 ms inter-datacenter RTT range.  ICC1 (gossip transport,
   fanout 4) is used, matching the Internet Computer's dissemination layer.

   What must reproduce (shape): the small/large block-rate ratio; the drop
   to ~0.4x block rate with n/3 failures; traffic that grows by roughly the
   gossip-amplified payload rate under load and *falls* under failures.
   Absolute Mb/s are lower than the paper's: its numbers include client
   traffic, key resharing, logs and metrics, which are out of protocol
   scope (see EXPERIMENTS.md). *)

type row = {
  subnet : int;
  scenario : string;
  blocks_per_s : float;
  mbit_per_node_s : float;
  paper_blocks_per_s : float;
  paper_mbit_per_node_s : float;
}

(* A subnet size with the deployment constants that mirror "the current
   parametrization" for it. *)
type subnet = { n : int; epsilon : float; delta_bnd : float }

let small = { n = 13; epsilon = 0.80; delta_bnd = 1.3 }
let large = { n = 40; epsilon = 2.30; delta_bnd = 3.5 }

let with_load (s : Icc_core.Runner.scenario) =
  { s with
    Icc_core.Runner.workload =
      Icc_core.Runner.Load { rate_per_s = 100.; cmd_size = 1024 } }

let with_failures (s : Icc_core.Runner.scenario) =
  {
    (with_load s) with
    Icc_core.Runner.behaviors =
      List.init (s.n / 3) (fun i -> (3 * (i + 1), Icc_core.Party.crashed));
  }

(* One line of Table 1: where it runs, what the paper reports, and how the
   scenario departs from the unloaded base run. *)
type case = {
  c_subnet : subnet;
  c_name : string;
  c_paper_blocks_per_s : float;
  c_paper_mbit_per_node_s : float;
  c_build : Icc_core.Runner.scenario -> Icc_core.Runner.scenario;
}

let case c_subnet c_name c_paper_blocks_per_s c_paper_mbit_per_node_s c_build =
  { c_subnet; c_name; c_paper_blocks_per_s; c_paper_mbit_per_node_s; c_build }

let cases =
  [
    case small "without load" 1.09 1.64 Fun.id;
    case small "with load" 1.10 4.72 with_load;
    case small "load + failures" 0.45 4.39 with_failures;
    case large "without load" 0.41 4.63 Fun.id;
    case large "with load" 0.41 7.32 with_load;
    case large "load + failures" 0.16 5.06 with_failures;
  ]

let run_case ~quick c =
  let { n; epsilon; delta_bnd } = c.c_subnet in
  let duration = if quick then 60. else 180. in
  let scenario =
    c.c_build
      {
        (Icc_core.Runner.default_scenario ~n ~seed:(1000 + n)) with
        Icc_core.Runner.duration;
        delay = Icc_core.Runner.Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
        epsilon;
        delta_bnd;
        t_corrupt = Icc_crypto.Keygen.max_corrupt ~n;
      }
  in
  let r = Icc_gossip.Icc1.run ~fanout:4 scenario in
  {
    subnet = n;
    scenario = c.c_name;
    blocks_per_s = r.Icc_core.Runner.blocks_per_s;
    mbit_per_node_s =
      Icc_sim.Metrics.mean_bytes_per_party_per_second
        r.Icc_core.Runner.metrics ~window:r.Icc_core.Runner.duration
      *. 8. /. 1e6;
    paper_blocks_per_s = c.c_paper_blocks_per_s;
    paper_mbit_per_node_s = c.c_paper_mbit_per_node_s;
  }

let run ?(quick = false) () = List.map (run_case ~quick) cases

let print rows =
  print_endline
    "== E1 / Table 1: block rate and consensus traffic per node (ICC1, WAN) ==";
  Printf.printf "%-8s %-17s %14s %14s %16s %16s\n" "subnet" "scenario"
    "blocks/s" "paper blk/s" "Mb/s per node" "paper Mb/s*";
  List.iter
    (fun r ->
      Printf.printf "%-8d %-17s %14.2f %14.2f %16.2f %16.2f\n" r.subnet
        r.scenario r.blocks_per_s r.paper_blocks_per_s r.mbit_per_node_s
        r.paper_mbit_per_node_s)
    rows;
  print_endline
    "  (*) paper traffic includes non-consensus flows (client requests, key\n\
    \      resharing, logs, metrics); this harness accounts consensus-layer\n\
    \      traffic only, so compare deltas and ratios, not absolutes."
