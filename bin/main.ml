(* icc — command-line front end for the ICC reproduction.

   Subcommands:
     run         one ICC0/ICC1/ICC2 simulation with explicit parameters
     table1      regenerate the paper's Table 1 (experiment E1)
     exp         regenerate any single experiment E1..E11
     baselines   run PBFT / chained HotStuff on a matching network
     analyze     replay a --trace JSONL dump offline (monitor + reports)
     profile     run with the self-profiler on and print the breakdown
     keys        demonstrate key generation and the random beacon *)

open Cmdliner

let protocol_conv =
  Arg.enum [ ("icc0", `Icc0); ("icc1", `Icc1); ("icc2", `Icc2) ]

(* --corrupt tags: crash/lazy are Party behaviors; the Byzantine ones
   compile to Adversary directives (the strategies live there now). *)
let behavior_conv =
  Arg.enum
    [
      ("crashed", `Crashed);
      ("equivocator", `Equivocator);
      ("stealthy", `Stealthy);
      ("lazy", `Lazy);
    ]

let split_corrupt corrupt =
  List.fold_left
    (fun (bs, ds) (id, tag) ->
      match tag with
      | `Crashed -> ((id, Icc_core.Party.crashed) :: bs, ds)
      | `Lazy -> ((id, Icc_core.Party.lazy_participant) :: bs, ds)
      | `Equivocator -> (bs, [ Icc_sim.Adversary.equivocate ~noisy:true id ] :: ds)
      | `Stealthy ->
          ( bs,
            [
              Icc_sim.Adversary.equivocate id;
              Icc_sim.Adversary.withhold ~notar:true ~final:true id;
            ]
            :: ds ))
    ([], []) corrupt
  |> fun (bs, ds) -> (bs, List.concat ds)

(* --trace FILE: subscribe a JSONL sink to a fresh trace bus and hand the
   bus to the scenario; one JSON object per line, schema in DESIGN.md. *)
let with_trace_file path f =
  match path with
  | None -> f None
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "icc: cannot open trace file: %s\n" msg;
          exit 1
      in
      let trace = Icc_sim.Trace.create () in
      Icc_sim.Trace.subscribe trace (fun ~time ev ->
          output_string oc (Icc_sim.Trace.to_json ~time ev);
          output_char oc '\n');
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (Some trace))

let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL event log of the run to $(docv).")

(* Shared monitor flags (run / baselines). *)
let monitor_arg =
  Arg.(value & flag
       & info [ "monitor" ]
           ~doc:"Attach the online invariant monitor to the run's trace bus.")

let monitor_abort_arg =
  Arg.(value & flag
       & info [ "monitor-abort" ]
           ~doc:"With $(b,--monitor): abort the run at the first fatal \
                 safety violation (exit 2) instead of reporting at the end.")

let stall_factor_arg =
  Arg.(value & opt float 8.
       & info [ "stall-factor" ] ~docv:"X"
           ~doc:"Monitor watchdog: flag a round stage stalled after \
                 $(docv) times the delay bound without progress.")

let monitor_config ~on ~abort ~stall_factor ~delta =
  if on then
    Some
      (Icc_sim.Monitor.default_config ~stall_factor
         ~abort_on_violation:abort ~delta ())
  else None

let print_monitor_report = function
  | None -> ()
  | Some m -> print_endline (Icc_sim.Monitor.report m)

let monitor_ok = function
  | None -> true
  | Some m -> Icc_sim.Monitor.ok m

(* A monitor abort carries the event-indexed diagnosis; exit 2 with it.
   A scenario the run rejects (e.g. a party id outside 1..n) exits 1. *)
let with_run_errors f =
  try f () with
  | Icc_sim.Monitor.Abort v ->
      Printf.eprintf "icc: run aborted by invariant monitor:\n  %s\n"
        (Icc_sim.Monitor.violation_message v);
      exit 2
  | Invalid_argument msg ->
      Printf.eprintf "icc: %s\n" msg;
      exit 1

(* Shared nemesis flags (run / baselines): a fault script assembled from
   the quick link flags, an optional JSON script file, and crash cycles. *)
let drop_arg =
  Arg.(value & opt (some float) None
       & info [ "drop" ] ~docv:"P"
           ~doc:"Nemesis: drop every message with probability $(docv).")

let dup_arg =
  Arg.(value & opt (some float) None
       & info [ "dup" ] ~docv:"P"
           ~doc:"Nemesis: deliver a delayed duplicate with probability \
                 $(docv).")

let reorder_arg =
  Arg.(value & opt (some float) None
       & info [ "reorder" ] ~docv:"P"
           ~doc:"Nemesis: add a reordering extra delay with probability \
                 $(docv).")

let flap_arg =
  Arg.(value & opt (some float) None
       & info [ "flap" ] ~docv:"PERIOD"
           ~doc:"Nemesis: flap every link with this period in seconds (up \
                 for the first half of each period).")

let nemesis_file_arg =
  Arg.(value & opt (some string) None
       & info [ "nemesis" ] ~docv:"FILE"
           ~doc:"JSON nemesis script: an array of objects selected by their \
                 \"fault\" field (drop, dup, reorder, flap, partition, \
                 crash, recover); see DESIGN.md §3.3.")

let crash_cycle_arg =
  Arg.(value & opt_all (t3 ~sep:':' int float float) []
       & info [ "crash-cycle" ] ~docv:"ID:DOWN:UP"
           ~doc:"Nemesis: crash party $(i,ID) at time $(i,DOWN), recover it \
                 at $(i,UP).  Repeatable.")

let read_file ~flag path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "icc: cannot open %s script: %s\n" flag msg;
      exit 1
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let nemesis_script ~drop ~dup ~reorder ~flap ~file ~cycles =
  let base =
    match file with
    | None -> []
    | Some path -> (
        match
          Icc_sim.Fault.script_of_json (read_file ~flag:"--nemesis" path)
        with
        | Ok s -> s
        | Error msg ->
            Printf.eprintf "icc: bad nemesis script %s: %s\n" path msg;
            exit 1)
  in
  let opt f = function None -> [] | Some v -> [ f v ] in
  let script =
    base
    @ opt (fun p -> Icc_sim.Fault.drop p) drop
    @ opt (fun p -> Icc_sim.Fault.duplicate p) dup
    @ opt (fun p -> Icc_sim.Fault.reorder p) reorder
    @ opt (fun period -> Icc_sim.Fault.flap ~period ()) flap
    @ List.concat_map
        (fun (party, down, up) ->
          Icc_sim.Fault.crash_recover ~party ~down ~up)
        cycles
  in
  match script with [] -> None | s -> Some s

(* Shared adversary flags (run / baselines): a Byzantine strategy script
   assembled from an optional JSON file and the quick shorthands. *)
let adversary_file_arg =
  Arg.(value & opt (some string) None
       & info [ "adversary" ] ~docv:"FILE"
           ~doc:"JSON adversary script: an array of objects selected by \
                 their \"adversary\" field (equivocate, withhold, censor, \
                 delay, crash, straggle); see DESIGN.md §3.8.")

let equivocate_arg =
  Arg.(value & opt_all int []
       & info [ "equivocate" ] ~docv:"ID"
           ~doc:"Adversary: party $(docv) proposes conflicting blocks and \
                 shares promiscuously (noisy equivocation).  Repeatable.")

let withhold_arg =
  Arg.(value & opt_all int []
       & info [ "withhold" ] ~docv:"ID"
           ~doc:"Adversary: party $(docv) withholds all its shares \
                 (beacon, notarization, finalization).  Repeatable.")

let corrupt_adaptive_arg =
  Arg.(value & opt (some int) None
       & info [ "corrupt-adaptive" ] ~docv:"K"
           ~doc:"Adversary: adaptively corrupt up to $(docv) round leaders \
                 (beacon rank 0) as noisy equivocators.")

let adversary_script ~file ~equivocate ~withhold ~adaptive ~extra =
  let base =
    match file with
    | None -> []
    | Some path -> (
        match
          Icc_sim.Adversary.script_of_json (read_file ~flag:"--adversary" path)
        with
        | Ok s -> s
        | Error msg ->
            Printf.eprintf "icc: bad adversary script %s: %s\n" path msg;
            exit 1)
  in
  let script =
    base
    @ List.map (fun id -> Icc_sim.Adversary.equivocate ~noisy:true id) equivocate
    @ List.map (fun id -> Icc_sim.Adversary.withhold id) withhold
    @ (match adaptive with
      | None -> []
      | Some k ->
          [
            Icc_sim.Adversary.adaptive ~rank:0 ~max_corrupt:k
              (Icc_sim.Adversary.Equivocate { noisy = true });
          ])
    @ extra
  in
  match script with [] -> None | s -> Some s

(* ------------------------------------------------------------- scenario *)

(* The scenario flags `run` and `profile` share: one term yields the
   protocol, its gossip fanout and the scenario, without a trace bus. *)
type setup = {
  protocol : [ `Icc0 | `Icc1 | `Icc2 ];
  fanout : int;
  scenario : Icc_core.Runner.scenario;
}

let setup_term =
  let protocol =
    Arg.(value & opt protocol_conv `Icc0 & info [ "protocol"; "p" ]
           ~docv:"PROTO" ~doc:"Protocol variant: icc0, icc1 or icc2.")
  in
  let n = Arg.(value & opt int 7 & info [ "n" ] ~doc:"Number of parties.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let duration =
    Arg.(value & opt float 30. & info [ "duration"; "d" ]
           ~doc:"Simulated seconds.")
  in
  let delta =
    Arg.(value & opt float 0.05 & info [ "delta" ]
           ~doc:"One-way network delay in seconds (fixed model).")
  in
  let wan =
    Arg.(value & flag & info [ "wan" ]
           ~doc:"Use the paper's WAN model (RTT ~ U[6,110] ms) instead of a \
                 fixed delay.")
  in
  let epsilon =
    Arg.(value & opt float 0.2 & info [ "epsilon" ]
           ~doc:"Governor epsilon of the Delta_ntry delay function.")
  in
  let delta_bnd =
    Arg.(value & opt float 1.0 & info [ "delta-bnd" ]
           ~doc:"Partial-synchrony bound Delta_bnd.")
  in
  let load =
    Arg.(value & opt (some float) None & info [ "load" ]
           ~doc:"Client commands per second (1 KB each).")
  in
  let block_size =
    Arg.(value & opt (some int) None & info [ "block-size" ]
           ~doc:"Fixed block payload in bytes (overrides --load).")
  in
  let corrupt =
    Arg.(value & opt_all (pair ~sep:':' int behavior_conv) []
         & info [ "corrupt" ] ~docv:"ID:BEHAVIOR"
             ~doc:"Corrupt party, e.g. 2:crashed, 3:equivocator, 4:stealthy, \
                   5:lazy.  Repeatable.")
  in
  let async_until =
    Arg.(value & opt float 0. & info [ "async-until" ]
           ~doc:"Adversarial asynchrony until this simulated time.")
  in
  let fanout =
    Arg.(value & opt int 4 & info [ "fanout" ] ~doc:"Gossip fanout (icc1).")
  in
  let build protocol n seed duration delta wan epsilon delta_bnd load
      block_size corrupt async_until fanout drop dup reorder flap nemesis_file
      crash_cycles adversary_file equivocate withhold corrupt_adaptive monitor
      monitor_abort stall_factor =
    let nemesis =
      nemesis_script ~drop ~dup ~reorder ~flap ~file:nemesis_file
        ~cycles:crash_cycles
    in
    let behaviors, corrupt_directives = split_corrupt corrupt in
    let adversary =
      adversary_script ~file:adversary_file ~equivocate ~withhold
        ~adaptive:corrupt_adaptive ~extra:corrupt_directives
    in
    let scenario =
      {
        (Icc_core.Runner.default_scenario ~n ~seed) with
        Icc_core.Runner.duration;
        nemesis;
        adversary;
        delay =
          (if wan then Icc_core.Runner.Wan { rtt_lo = 0.006; rtt_hi = 0.110 }
           else Icc_core.Runner.Fixed_delay delta);
        epsilon;
        delta_bnd;
        behaviors;
        async_until;
        workload =
          (match (block_size, load) with
          | Some size, _ -> Icc_core.Runner.Fixed_block_size size
          | None, Some rate ->
              Icc_core.Runner.Load { rate_per_s = rate; cmd_size = 1024 }
          | None, None -> Icc_core.Runner.No_load);
        monitor =
          monitor_config ~on:monitor ~abort:monitor_abort ~stall_factor
            ~delta:delta_bnd;
      }
    in
    { protocol; fanout; scenario }
  in
  Term.(
    const build $ protocol $ n $ seed $ duration $ delta $ wan $ epsilon
    $ delta_bnd $ load $ block_size $ corrupt $ async_until $ fanout
    $ drop_arg $ dup_arg $ reorder_arg $ flap_arg $ nemesis_file_arg
    $ crash_cycle_arg $ adversary_file_arg $ equivocate_arg $ withhold_arg
    $ corrupt_adaptive_arg $ monitor_arg $ monitor_abort_arg
    $ stall_factor_arg)

let run_setup ?trace { protocol; fanout; scenario } =
  let scenario = { scenario with Icc_core.Runner.trace } in
  match protocol with
  | `Icc0 -> Icc_core.Runner.run scenario
  | `Icc1 -> Icc_gossip.Icc1.run ~fanout scenario
  | `Icc2 -> Icc_rbc.Icc2.run scenario

(* ------------------------------------------------------------------ run *)

let run_cmd =
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Enable the self-profiler (spans + registry counters). \
                   With $(b,--trace), the run's aggregate lands on the bus \
                   as $(i,prof-span)/$(i,prof-counter) events before \
                   run-end; $(b,icc analyze) renders them.")
  in
  let exec setup profile trace_file =
    Icc_obs.Profile.set_enabled profile;
    let r =
      with_run_errors (fun () ->
          with_trace_file trace_file (fun trace -> run_setup ?trace setup))
    in
    Option.iter (Printf.printf "trace written       %s\n") trace_file;
    Printf.printf "rounds decided      %d\n" r.Icc_core.Runner.rounds_decided;
    Printf.printf "directly finalized  %d\n"
      (List.length r.Icc_core.Runner.directly_finalized);
    Printf.printf "block rate          %.3f blocks/s\n"
      r.Icc_core.Runner.blocks_per_s;
    Printf.printf "commit latency      %.4f s\n" r.Icc_core.Runner.mean_latency;
    Printf.printf "commands committed  %d\n"
      r.Icc_core.Runner.commands_committed;
    Printf.printf "total traffic       %.2f MB in %d msgs (max/party %.2f MB)\n"
      (float_of_int (Icc_sim.Metrics.total_bytes r.Icc_core.Runner.metrics)
      /. 1e6)
      (Icc_sim.Metrics.total_msgs r.Icc_core.Runner.metrics)
      (float_of_int
         (Icc_sim.Metrics.max_bytes_per_party r.Icc_core.Runner.metrics)
      /. 1e6);
    (* Crypto-op totals from the registry-backed counters, zeros included:
       a run that verifies nothing says so. *)
    Printf.printf "crypto ops          %s\n"
      (String.concat ", "
         (List.map
            (fun (name, v) -> Printf.sprintf "%s %d" name v)
            (Icc_crypto.Counters.snapshot ())));
    print_monitor_report r.Icc_core.Runner.monitor;
    let ok, line = Icc_core.Runner.verdict r in
    print_endline line;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one ICC simulation.")
    Term.(const exec $ setup_term $ profile $ trace_arg)

(* ------------------------------------------------------------ exhibits *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps / shorter runs.")

(* The experiments, by id: the dispatcher, the accepted ids and their
   documentation are this one table. *)
let experiments =
  let open Icc_experiments in
  [
    ("e1", fun quick -> Table1.print (Table1.run ~quick ()));
    ("e2", fun quick -> Msg_complexity.print (Msg_complexity.run ~quick ()));
    ("e3", fun quick -> Round_complexity.print (Round_complexity.run ~quick ()));
    ("e4", fun quick -> Throughput_latency.print (Throughput_latency.run ~quick ()));
    ("e5", fun quick -> Leader_bottleneck.print (Leader_bottleneck.run ~quick ()));
    ("e6", fun quick -> Baselines_compare.print (Baselines_compare.run ~quick ()));
    ("e7", fun quick -> Robustness.print (Robustness.run ~quick ()));
    ("e8", fun quick -> Asynchrony.print (Asynchrony.run ~quick ()));
    ("e9", fun quick -> Adaptivity.print (Adaptivity.run ~quick ()));
    ("e10", fun quick -> Scale.print (Scale.run ~quick ()));
    ("e11", fun quick -> Adversary_sweep.print (Adversary_sweep.run ~quick ()));
  ]

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1 (experiment E1).")
    Term.(const (List.assoc "e1" experiments) $ quick_arg)

let exp_cmd =
  let which =
    Arg.(required & pos 0 (some (enum experiments)) None
         & info [] ~docv:"ID"
             ~doc:("Experiment id: " ^ doc_alts_enum experiments ^ "."))
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate one experiment (e1..e11).")
    Term.(const (fun quick run -> run quick) $ quick_arg $ which)

(* ----------------------------------------------------------- baselines *)

let baselines_cmd =
  let proto =
    Arg.(value & opt (enum [ ("pbft", `Pbft); ("hotstuff", `Hotstuff); ("tendermint", `Tendermint) ]) `Pbft
         & info [ "protocol"; "p" ] ~doc:"pbft, hotstuff or tendermint.")
  in
  let n = Arg.(value & opt int 7 & info [ "n" ] ~doc:"Replicas.") in
  let duration =
    Arg.(value & opt float 30. & info [ "duration"; "d" ] ~doc:"Seconds.")
  in
  let delta =
    Arg.(value & opt float 0.05 & info [ "delta" ] ~doc:"One-way delay.")
  in
  let crashed =
    Arg.(value & opt_all int [] & info [ "crash" ] ~doc:"Crashed replica id.")
  in
  let exec proto n duration delta crashed drop adversary_file withhold
      trace_file monitor monitor_abort stall_factor =
    let nemesis =
      nemesis_script ~drop ~dup:None ~reorder:None ~flap:None ~file:None
        ~cycles:[]
    in
    let adversary =
      adversary_script ~file:adversary_file ~equivocate:[] ~withhold
        ~adaptive:None ~extra:[]
    in
    let r =
      with_run_errors (fun () ->
          with_trace_file trace_file (fun trace ->
              let scenario =
                {
                  (Icc_baselines.Harness.default_scenario ~n ~seed:42) with
                  Icc_baselines.Harness.duration;
                  delay = Icc_core.Runner.Fixed_delay delta;
                  crashed;
                  nemesis;
                  adversary;
                  trace;
                  monitor =
                    (* The watchdog scales by the view-change timeout: the
                       baselines' own recovery bound. *)
                    monitor_config ~on:monitor ~abort:monitor_abort
                      ~stall_factor ~delta:1.0;
                }
              in
              match proto with
              | `Pbft -> Icc_baselines.Pbft.run scenario
              | `Hotstuff -> Icc_baselines.Hotstuff.run scenario
              | `Tendermint -> Icc_baselines.Tendermint.run scenario))
    in
    Option.iter (Printf.printf "trace written     %s\n") trace_file;
    Printf.printf "blocks committed  %d (%.2f/s)\n"
      r.Icc_baselines.Harness.blocks_committed
      r.Icc_baselines.Harness.blocks_per_s;
    Printf.printf "latency           %.4f s\n" r.Icc_baselines.Harness.mean_latency;
    print_monitor_report r.Icc_baselines.Harness.monitor;
    Printf.printf "safety            %b\n" r.Icc_baselines.Harness.safety_ok;
    if
      not
        (r.Icc_baselines.Harness.safety_ok
        && monitor_ok r.Icc_baselines.Harness.monitor)
    then exit 1
  in
  Cmd.v
    (Cmd.info "baselines" ~doc:"Run a baseline protocol (PBFT / HotStuff / Tendermint).")
    Term.(
      const exec $ proto $ n $ duration $ delta $ crashed $ drop_arg
      $ adversary_file_arg $ withhold_arg $ trace_arg $ monitor_arg
      $ monitor_abort_arg $ stall_factor_arg)

(* ------------------------------------------------------------- analyze *)

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"JSONL trace file written by $(b,--trace).")
  in
  let round =
    Arg.(value & opt (some int) None
         & info [ "round" ] ~docv:"K"
             ~doc:"Walk the causal critical path of round $(docv) (default: \
                   the last decided round).")
  in
  let delta =
    Arg.(value & opt float 1.0
         & info [ "delta" ] ~docv:"SECONDS"
             ~doc:"Delay bound the offline watchdog scales by.")
  in
  let exec file round delta stall_factor =
    let config = Icc_sim.Monitor.default_config ~stall_factor ~delta () in
    let report =
      try Icc_experiments.Analyze.analyze ~config ?round file
      with Sys_error msg ->
        Printf.eprintf "icc: %s\n" msg;
        exit 1
    in
    Icc_experiments.Analyze.print report;
    if not (Icc_experiments.Analyze.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Replay a --trace JSONL dump: re-check invariants offline and \
             report round pipelines, bandwidth and critical paths.")
    Term.(const exec $ file $ round $ delta $ stall_factor_arg)

(* ------------------------------------------------------------- profile *)

(* `icc profile`: one run with the self-profiler on, rendered as a
   per-phase breakdown, the registry counters, per-round and per-party
   self-time attribution, and optionally a folded-stack export and a JSON
   dump.  Everything here is host wall-clock observation — the simulated
   run itself is the same deterministic run `icc run` performs. *)

let profile_cmd =
  let folded =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write the folded-stack profile (one \"path \
                   self-microseconds\" line per distinct span stack) to \
                   $(docv) — flamegraph.pl / inferno input.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the whole profile as one JSON object on stdout \
                   instead of the tables.")
  in
  let top =
    Arg.(value & opt int 12
         & info [ "top" ] ~docv:"K"
             ~doc:"Rows shown in the breakdown table (the rest is summed \
                   into an (other) row).  0 means all.")
  in
  let prometheus =
    Arg.(value & opt (some string) None
         & info [ "prometheus" ] ~docv:"FILE"
             ~doc:"Write the end-of-run registry in Prometheus text \
                   exposition format to $(docv) ($(i,-) for stdout).")
  in
  let exec setup folded json top prometheus =
    Icc_obs.Registry.reset ();
    Icc_obs.Profile.reset ();
    Icc_obs.Profile.set_enabled true;
    let t0 = Icc_obs.Profile.now () in
    let r = with_run_errors (fun () -> run_setup setup) in
    let wall = Icc_obs.Profile.now () -. t0 in
    Icc_obs.Profile.set_enabled false;
    let report = Icc_obs.Profile.report () in
    let write_out what path text =
      match open_out path with
      | oc ->
          output_string oc text;
          close_out oc
      | exception Sys_error msg ->
          Printf.eprintf "icc: cannot open %s output: %s\n" what msg;
          exit 1
    in
    Option.iter
      (fun path -> write_out "folded" path (Icc_obs.Profile.folded_lines ()))
      folded;
    (match prometheus with
    | None -> ()
    | Some "-" -> print_string (Icc_obs.Registry.to_prometheus ())
    | Some path ->
        write_out "prometheus" path (Icc_obs.Registry.to_prometheus ()));
    let proto_name =
      match setup.protocol with
      | `Icc0 -> "icc0"
      | `Icc1 -> "icc1"
      | `Icc2 -> "icc2"
    in
    let { Icc_core.Runner.n; seed; duration; _ } = setup.scenario in
    let safe, verdict = Icc_core.Runner.verdict r in
    if json then
      print_endline
        (Icc_obs.Json.to_string
           (Icc_obs.Json.Object
              ([
                 ("protocol", Icc_obs.Json.String proto_name);
                 ("n", Int n);
                 ("seed", Int seed);
                 ("duration", Float duration);
                 ("wall_s", Float wall);
                 ("rounds_decided", Int r.Icc_core.Runner.rounds_decided);
                 ( "safety",
                   Object [ ("ok", Bool safe); ("verdict", String verdict) ] );
               ]
              @ Icc_obs.Profile.to_json report)))
    else begin
      Printf.printf
        "profile: %s n=%d seed=%d duration=%g (wall %.3f s, %d rounds decided)\n"
        proto_name n seed duration wall r.Icc_core.Runner.rounds_decided;
      print_newline ();
      print_string (Icc_obs.Profile.render ~top report);
      Option.iter
        (Printf.printf "\nfolded stacks written to %s\n")
        folded;
      print_monitor_report r.Icc_core.Runner.monitor;
      print_endline verdict
    end;
    if not safe then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one simulation with the self-profiler enabled and print \
             the per-phase wall-clock breakdown (plus folded-stack and \
             JSON exports).")
    Term.(const exec $ setup_term $ folded $ json $ top $ prometheus)

(* ---------------------------------------------------------------- keys *)

let keys_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Parties.") in
  let exec n =
    let t = Icc_crypto.Keygen.max_corrupt ~n in
    let rng = Icc_sim.Rng.create 7 in
    let system, keys =
      Icc_crypto.Keygen.generate ~n ~t (fun () -> Icc_sim.Rng.bits61 rng)
    in
    Printf.printf "n = %d parties, tolerating t = %d corruptions\n" n t;
    Printf.printf "notarization/finalization quorum h = n - t = %d\n" (n - t);
    Printf.printf "beacon threshold t + 1 = %d\n\n" (t + 1);
    (* walk the beacon chain for a few rounds *)
    let msg round prev = Icc_core.Types.beacon_text ~round ~prev_sigma:prev in
    let rec beacon round prev =
      if round <= 5 then begin
        let m = msg round prev in
        let shares =
          List.filteri (fun i _ -> i <= t)
            (List.map
               (fun k ->
                 Icc_crypto.Threshold_vuf.sign_share
                   system.Icc_crypto.Keygen.beacon
                   k.Icc_crypto.Keygen.beacon_key m)
               keys)
        in
        match
          Icc_crypto.Threshold_vuf.combine system.Icc_crypto.Keygen.beacon m
            shares
        with
        | Some sig_ ->
            let rand = Icc_crypto.Threshold_vuf.randomness m sig_ in
            Printf.printf "beacon round %d: randomness %s\n" round
              (String.sub (Icc_crypto.Sha256.to_hex rand) 0 16);
            beacon (round + 1)
              (string_of_int sig_.Icc_crypto.Threshold_vuf.sigma)
        | None -> print_endline "combine failed"
      end
    in
    beacon 1 Icc_core.Types.beacon_genesis
  in
  Cmd.v
    (Cmd.info "keys" ~doc:"Demonstrate key generation and the random beacon.")
    Term.(const exec $ n)

let () =
  let doc = "Internet Computer Consensus (PODC 2022) reproduction" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "icc" ~doc)
          [
            run_cmd;
            table1_cmd;
            exp_cmd;
            baselines_cmd;
            analyze_cmd;
            profile_cmd;
            keys_cmd;
          ]))
