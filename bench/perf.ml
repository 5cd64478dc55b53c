(* `bench perf` — before/after measurement for the hot-path optimisations.

   One table, [toggles], names every speed toggle: generic double-and-add
   field multiplication vs the fast one, fixed-base tables, block-digest
   memoisation.  Each protocol variant (ICC0 direct, ICC1 gossip, ICC2
   erasure RBC) runs on the identical scenario and seed with every toggle
   OFF and with the defaults ON.  A traced run of each dumps its trace to
   an in-memory JSONL buffer and snapshots the op counters; the buffers
   must be byte-identical — the optimisations may only change speed, never
   behaviour.  [before_s]/[after_s] time a separate untraced run of each,
   so trace serialisation does not dilute the protocol's own cost.

   The one-toggle-off ablation then gives each toggle's marginal cost:
   all-on and each toggle alone off, one row each.  A row's traced warm-up
   run must reproduce the all-on trace, or the run fails like a
   before/after mismatch; its interleaved untraced reps give the median
   wall-clock, which is informational.

   Emits BENCH_perf.json (schema in EXPERIMENTS.md) through
   {!Icc_obs.Json} and, with `--check ref.json`, fails if any scenario's
   optimised wall-clock regressed to more than 2x the checked-in
   reference, or — when the run's config equals the reference's, compared
   member by member and numbers by value — if any of its [ops_after]
   crypto counters differs from the reference at all: the counters are
   deterministic for a fixed config, so they are gated exactly.  The
   reference is parsed before anything runs; an unreadable one exits 1 at
   once.  The gate covers the before/after scenarios only; the ablation
   and sweep rows are informational.

   A committee-size sweep rides along: optimised-only ICC0/ICC1 runs at
   n in {16, 50, 100}, reporting wall-clock, message totals and the
   per-message processing cost — the large-n scale-out's guard that
   per-message work stays flat while traffic grows O(n^2).

     dune exec bench/main.exe -- perf [--quick] [--n N] [--out PATH]
                                      [--check REF] *)

module Scenario = Icc_experiments.Scenario

type scenario_result = {
  name : string;
  before_s : float;
  after_s : float;
  speedup : float;
  trace_identical : bool;
  trace_events : int;
  ops_before : (string * int) list;
  ops_after : (string * int) list;
  phases : (string * int) list;
      (* span name -> self-microseconds, from a separate profiled run (the
         profiler never runs during the timed before/after runs, so its
         overhead cannot pollute the regression gate) *)
}

(* --- argv ----------------------------------------------------------- *)

let find_arg flag =
  let n = Array.length Sys.argv in
  let rec go i =
    if i >= n - 1 then None
    else if String.equal Sys.argv.(i) flag then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 0

let has_flag flag = Array.exists (String.equal flag) Sys.argv

(* --- measurement ----------------------------------------------------- *)

(* The speed toggles, by name.  Each may only change speed, never a
   trace: the before/after legs flip them all together, the ablation one
   at a time.  Beacon-share verification at admission is a correctness
   fix, not an optimisation, so it has no toggle and runs in every
   configuration. *)
let toggles =
  [
    ("fast_mul", Icc_crypto.Fp.set_fast_mul);
    ("fixed_base", Icc_crypto.Group.set_fixed_base);
    ("memoization", Icc_core.Block.set_memoization);
  ]

let set_all on = List.iter (fun (_, set) -> set on) toggles

let delay_s = 0.02

let perf_scenario ~quick ~seed ~n =
  {
    (Icc_core.Runner.default_scenario ~n ~seed) with
    Icc_core.Runner.duration = 1e6;
    max_rounds = Some (if quick then 4 else 10);
    delay = Icc_core.Runner.Fixed_delay delay_s;
    epsilon = 0.05;
  }

let count_lines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

(* The trace and the op counters of one run; not timed.  The fixed-base
   cache is cleared first, so the run's [fixed_base_tables] counts its own
   tables, whichever scenarios ran before it in this process. *)
let traced_run run_fn scenario =
  let tr = Icc_sim.Trace.create () in
  let buf = Buffer.create (1 lsl 20) in
  Icc_sim.Trace.subscribe tr (fun ~time ev ->
      Buffer.add_string buf (Icc_sim.Trace.to_json ~time ev);
      Buffer.add_char buf '\n');
  Icc_crypto.Group.clear_fixed_base_cache ();
  Icc_crypto.Counters.reset ();
  let _ = run_fn { scenario with Icc_core.Runner.trace = Some tr } in
  (Buffer.contents buf, Icc_crypto.Counters.snapshot ())

(* Wall-clock seconds of one untraced, unprofiled run, and its result. *)
let timed_run run_fn scenario =
  let t0 = Unix.gettimeofday () in
  let res = run_fn scenario in
  (Unix.gettimeofday () -. t0, res)

(* Per-phase attribution from one extra optimised run with the
   self-profiler on.  Kept apart from the timed runs so they pay zero
   profiling overhead. *)
let profiled_phases run_fn scenario =
  Icc_obs.Profile.reset ();
  Icc_obs.Profile.set_enabled true;
  let _ = run_fn scenario in
  Icc_obs.Profile.set_enabled false;
  List.map
    (fun st -> (st.Icc_obs.Profile.sp_name, Icc_obs.Profile.us st.sp_self_s))
    (Icc_obs.Profile.stats ())

let measure ~quick ~seed ~n name run_fn =
  let scenario = perf_scenario ~quick ~seed ~n in
  set_all false;
  let trace_before, ops_before = traced_run run_fn scenario in
  let before_s, _ = timed_run run_fn scenario in
  set_all true;
  let trace_after, ops_after = traced_run run_fn scenario in
  let after_s, _ = timed_run run_fn scenario in
  let phases = profiled_phases run_fn scenario in
  {
    name;
    before_s;
    after_s;
    speedup = (if after_s > 0. then before_s /. after_s else nan);
    trace_identical = String.equal trace_before trace_after;
    trace_events = count_lines trace_after;
    ops_before;
    ops_after;
    phases;
  }

(* --- one-toggle-off ablation ------------------------------------------ *)

type ablation_row = {
  ab_name : string;
  ab_off : string; (* the toggle switched off, or "none" *)
  ab_wall_s : float; (* median over the reps *)
  ab_slowdown : float; (* ab_wall_s over the all-on row's *)
  ab_trace_identical : bool; (* the warm-up's trace equals the all-on one *)
}

let ablation_reps ~quick = if quick then 1 else 3

let median = Icc_sim.Metrics.percentile 50.

(* Each configuration — all on, then each toggle alone off — first runs
   once traced: a warm-up whose trace must equal the all-on one.  Then each
   rep times every configuration once, untraced, so host drift falls on
   every row alike and trace serialisation does not dilute a toggle's
   cost. *)
let ablation ~quick ~seed ~n name run_fn =
  let scenario = perf_scenario ~quick ~seed ~n in
  let offs = "none" :: List.map fst toggles in
  let configure off =
    List.iter (fun (k, set) -> set (not (String.equal k off))) toggles
  in
  let trace_of off =
    configure off;
    fst (traced_run run_fn scenario)
  in
  let reference = trace_of "none" in
  let identical =
    true
    :: List.map (fun (k, _) -> String.equal (trace_of k) reference) toggles
  in
  let walls = Array.make (List.length offs) [] in
  for _ = 1 to ablation_reps ~quick do
    List.iteri
      (fun i off ->
        configure off;
        walls.(i) <- fst (timed_run run_fn scenario) :: walls.(i))
      offs
  done;
  set_all true;
  let all_on = median walls.(0) in
  List.mapi
    (fun i (off, same) ->
      let wall = median walls.(i) in
      {
        ab_name = name;
        ab_off = off;
        ab_wall_s = wall;
        ab_slowdown = (if all_on > 0. then wall /. all_on else nan);
        ab_trace_identical = same;
      })
    (List.combine offs identical)

(* --- committee-size sweep --------------------------------------------- *)

type sweep_result = {
  sw_name : string;
  sw_n : int;
  sw_wall_s : float;
  sw_msgs : int;
  sw_rounds : int;
  sw_us_per_msg : float;
}

(* Optimised-only runs across committee sizes.  The interesting number is
   the last column: wall-clock divided by messages delivered.  Message
   count grows O(n^2) by protocol design; the per-message cost must not —
   a superlinear slot-ring/engine/metrics structure shows up here as
   us/msg climbing with n. *)
let sweep_row ~quick ~seed name run_fn n =
  let wall, res = timed_run run_fn (perf_scenario ~quick ~seed ~n) in
  let msgs = Icc_sim.Metrics.total_msgs res.Icc_core.Runner.metrics in
  {
    sw_name = name;
    sw_n = n;
    sw_wall_s = wall;
    sw_msgs = msgs;
    sw_rounds = res.Icc_core.Runner.rounds_decided;
    sw_us_per_msg = (if msgs > 0 then wall *. 1e6 /. float_of_int msgs else nan);
  }

let run_sweep ~quick ~seed =
  let ns = if quick then [ 16; 32 ] else [ 16; 50; 100 ] in
  set_all true;
  List.concat_map
    (fun n ->
      List.map
        (fun p ->
          sweep_row ~quick ~seed (Scenario.Icc.label p) (Scenario.Icc.run p) n)
        [ Scenario.Icc.Icc0; Scenario.Icc.icc1 ])
    ns

(* --- JSON emission ---------------------------------------------------- *)

module J = Icc_obs.Json

let counts_json kv = J.Object (List.map (fun (k, v) -> (k, J.Int v)) kv)

let scenario_json r =
  J.Object
    [
      ("name", J.String r.name);
      ("before_s", J.Float r.before_s);
      ("after_s", J.Float r.after_s);
      ("speedup", J.Float r.speedup);
      ("trace_identical", J.Bool r.trace_identical);
      ("trace_events", J.Int r.trace_events);
      ("ops_before", counts_json r.ops_before);
      ("ops_after", counts_json r.ops_after);
      ("phases_us", counts_json r.phases);
    ]

let sweep_json s =
  J.Object
    [
      ("name", J.String s.sw_name);
      ("n", J.Int s.sw_n);
      ("wall_s", J.Float s.sw_wall_s);
      ("messages", J.Int s.sw_msgs);
      ("rounds", J.Int s.sw_rounds);
      ("us_per_msg", J.Float s.sw_us_per_msg);
    ]

let ablation_json ~quick rows =
  J.Object
    [
      ("warmup", J.Int 1);
      ("reps", J.Int (ablation_reps ~quick));
      ( "rows",
        J.Array
          (List.map
             (fun r ->
               J.Object
                 [
                   ("name", J.String r.ab_name);
                   ("off", J.String r.ab_off);
                   ("wall_s", J.Float r.ab_wall_s);
                   ("slowdown", J.Float r.ab_slowdown);
                   ("trace_identical", J.Bool r.ab_trace_identical);
                 ])
             rows) );
    ]

let config_json ~quick ~seed ~rounds ~n =
  J.Object
    [
      ("n", J.Int n);
      ("seed", J.Int seed);
      ("max_rounds", J.Int rounds);
      ("delay_s", J.Float delay_s);
      ("quick", J.Bool quick);
    ]

let results_json ~config results ablation sweep =
  let tb = List.fold_left (fun a r -> a +. r.before_s) 0. results in
  let ta = List.fold_left (fun a r -> a +. r.after_s) 0. results in
  J.Object
    [
      ("config", config);
      ("scenarios", J.Array (List.map scenario_json results));
      ("ablation", ablation);
      ("sweep", J.Array (List.map sweep_json sweep));
      ( "total",
        J.Object
          [
            ("before_s", J.Float tb);
            ("after_s", J.Float ta);
            ("speedup", J.Float (if ta > 0. then tb /. ta else nan));
          ] );
    ]

(* --- regression check against a committed reference ------------------- *)

let load_reference path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> J.parse text

(* Configs are equal member by member, numbers by value: 0.02 = 0.020. *)
let same_config a b =
  match (a, b) with
  | Some (J.Object x), J.Object y ->
      List.length x = List.length y
      && List.for_all
           (fun (k, v) ->
             match (List.assoc_opt k y, J.number v) with
             | Some w, Some f -> J.number w = Some f
             | Some w, None -> w = v
             | None, _ -> false)
           x
  | _ -> false

let ref_scenario reference name =
  match J.member "scenarios" reference with
  | Some (J.Array scenarios) ->
      List.find_opt (fun sc -> J.member "name" sc = Some (J.String name)) scenarios
  | _ -> None

let check_against ~config ~ref_path reference results =
  let same_config = same_config (J.member "config" reference) config in
  if not same_config then
    Printf.eprintf
      "bench perf: %s was recorded with another config; op counters not \
       gated\n"
      ref_path;
  let failures =
    List.concat_map
      (fun r ->
        let sc = ref_scenario reference r.name in
        let wall =
          match Option.bind (Option.bind sc (J.member "after_s")) J.number with
          | None ->
              [ Printf.sprintf "%s: not found in reference %s" r.name ref_path ]
          | Some ref_after ->
              if r.after_s > 2.0 *. ref_after then
                [
                  Printf.sprintf
                    "%s: optimised wall-clock %.3fs is > 2x reference %.3fs"
                    r.name r.after_s ref_after;
                ]
              else []
        in
        let ops =
          if not same_config then []
          else
            let ref_ops =
              match Option.bind sc (J.member "ops_after") with
              | Some (J.Object kv) -> kv
              | _ -> []
            in
            List.filter_map
              (fun (k, v) ->
                match List.assoc_opt k ref_ops with
                | Some (J.Int v') when v' = v -> None
                | Some v' ->
                    Some
                      (Printf.sprintf "%s: ops_after.%s is %d, reference %s"
                         r.name k v (J.to_string v'))
                | None ->
                    Some
                      (Printf.sprintf "%s: ops_after.%s missing from reference"
                         r.name k))
              r.ops_after
        in
        wall @ ops)
      results
  in
  List.iter prerr_endline failures;
  failures = []

(* --- entry point ------------------------------------------------------ *)

let print_table results =
  Printf.printf "%-6s %12s %12s %9s %9s %8s\n" "proto" "before (s)"
    "after (s)" "speedup" "trace=" "events";
  List.iter
    (fun r ->
      Printf.printf "%-6s %12.3f %12.3f %8.1fx %9s %8d\n" r.name r.before_s
        r.after_s r.speedup
        (if r.trace_identical then "yes" else "NO")
        r.trace_events)
    results;
  let interesting = [ "pow_generic"; "pow_fixed_base" ] in
  List.iter
    (fun r ->
      Printf.printf "  %s ops: %s\n" r.name
        (String.concat "  "
           (List.filter_map
              (fun k ->
                match
                  (List.assoc_opt k r.ops_before, List.assoc_opt k r.ops_after)
                with
                | Some b, Some a -> Some (Printf.sprintf "%s %d->%d" k b a)
                | _ -> None)
              interesting)))
    results;
  (* Per-phase attribution (share of profiled self-time, top phases). *)
  List.iter
    (fun r ->
      let total = List.fold_left (fun a (_, us) -> a + us) 0 r.phases in
      if total > 0 then begin
        let top =
          List.sort
            (fun (n1, a) (n2, b) ->
              match Int.compare b a with
              | 0 -> String.compare n1 n2
              | c -> c)
            r.phases
          |> List.filteri (fun i _ -> i < 4)
        in
        Printf.printf "  %s phases: %s
" r.name
          (String.concat "  "
             (List.map
                (fun (name, us) ->
                  Printf.sprintf "%s %.1f%%" name
                    (100. *. float_of_int us /. float_of_int total))
                top))
      end)
    results

let print_ablation rows =
  Printf.printf "%-6s %-12s %10s %9s %7s\n" "proto" "off" "wall (s)"
    "x all-on" "trace=";
  List.iter
    (fun r ->
      Printf.printf "%-6s %-12s %10.3f %8.2fx %7s\n" r.ab_name r.ab_off
        r.ab_wall_s r.ab_slowdown
        (if r.ab_trace_identical then "yes" else "NO"))
    rows

let print_sweep sweep =
  Printf.printf "%-6s %5s %10s %10s %7s %10s\n" "proto" "n" "wall (s)"
    "messages" "rounds" "us/msg";
  List.iter
    (fun s ->
      Printf.printf "%-6s %5d %10.3f %10d %7d %10.3f\n" s.sw_name s.sw_n
        s.sw_wall_s s.sw_msgs s.sw_rounds s.sw_us_per_msg)
    sweep

let main () =
  let quick = has_flag "--quick" in
  let out = Option.value ~default:"BENCH_perf.json" (find_arg "--out") in
  let n =
    match Option.map int_of_string_opt (find_arg "--n") with
    | Some (Some n) when n >= 4 -> n
    | Some _ -> invalid_arg "bench perf: --n expects an integer >= 4"
    | None -> 16
  in
  let seed = 7 in
  let rounds = if quick then 4 else 10 in
  (* The reference is read before anything is measured, so a bad path
     fails in a moment rather than after the whole run. *)
  let reference =
    Option.map
      (fun path ->
        match load_reference path with
        | Ok json -> (path, json)
        | Error msg ->
            Printf.eprintf "bench perf: cannot read --check %s: %s\n" path msg;
            exit 1)
      (find_arg "--check")
  in
  Printf.printf
    "== bench perf: hot-path before/after (n=%d, seed %d, %d rounds%s) ==\n" n
    seed rounds
    (if quick then ", quick" else "");
  let protocols =
    List.map
      (fun p -> (Scenario.Icc.label p, Scenario.Icc.run p))
      Scenario.Icc.all
  in
  let results =
    List.map (fun (name, run_fn) -> measure ~quick ~seed ~n name run_fn) protocols
  in
  print_table results;
  Printf.printf
    "== one-toggle-off ablation (1 warm-up, median of %d, interleaved) ==\n"
    (ablation_reps ~quick);
  let ablation_rows =
    List.concat_map
      (fun (name, run_fn) -> ablation ~quick ~seed ~n name run_fn)
      protocols
  in
  print_ablation ablation_rows;
  Printf.printf "== committee-size sweep (optimised, seed %d) ==\n" seed;
  let sweep = run_sweep ~quick ~seed in
  print_sweep sweep;
  let config = config_json ~quick ~seed ~rounds ~n in
  let json =
    results_json ~config results (ablation_json ~quick ablation_rows) sweep
  in
  let oc =
    try open_out out
    with Sys_error msg ->
      Printf.eprintf
        "bench perf: cannot write --out %s (%s); does the directory exist?\n"
        out msg;
      exit 1
  in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let traces_ok = List.for_all (fun r -> r.trace_identical) results in
  if not traces_ok then
    prerr_endline "FAIL: optimisations changed the trace (not byte-identical)";
  let ablation_broken =
    List.filter (fun r -> not r.ab_trace_identical) ablation_rows
  in
  List.iter
    (fun r ->
      Printf.eprintf "FAIL: %s with %s off changed the trace\n" r.ab_name
        r.ab_off)
    ablation_broken;
  let check_ok =
    match reference with
    | None -> true
    | Some (ref_path, reference) ->
        check_against ~config ~ref_path reference results
  in
  if not (traces_ok && ablation_broken = [] && check_ok) then exit 1
