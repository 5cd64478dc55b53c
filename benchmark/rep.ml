(* One repetition of one workload, run in a child process of its own so it
   gets a fresh heap and no leftover state.  A timed rep only hooks the
   first engine dispatch (the end of set-up) and [Block_decided]; a traced
   rep adds the {!Layers} instrumentation; a set-up rep stops at the first
   dispatch. *)

type mode = Timed | Traced | Setup_only

let mode_of_string = function
  | "timed" -> Timed
  | "traced" -> Traced
  | "setup" -> Setup_only
  | s -> invalid_arg ("unknown rep mode " ^ s)

let string_of_mode = function
  | Timed -> "timed"
  | Traced -> "traced"
  | Setup_only -> "setup"

type outcome = {
  failures : string list;  (* names of the checks this rep failed *)
  digest : string;  (* hex SHA-256 of the decided chain's block hashes *)
  setup_s : float;
  run_s : float;  (* host seconds from the first dispatch to the run's end *)
  rounds : int;  (* rounds decided by every honest party *)
  blocks : int;
  cmds : int;  (* commands in decided blocks *)
  sim : (string * string * float * int) list;
      (* simulated metrics: name, unit, value, sample count; exact for a
         seed *)
  peak_heap_mb : float;
  attempted : int;  (* commands due at least 2 sim-s before the end *)
  failed : int;  (* ... of which never decided *)
  round_wall_ms : float list;  (* host ms between consecutive decisions *)
  gc : (string * string * float) list;  (* name, unit, value *)
  layers : (string * string * float) list;  (* traced reps only *)
}

type reply = Setup of float | Done of outcome | Crashed

(* Commands due this close to the end may legitimately be undecided. *)
let grace_s ~quick = if quick then 1. else 2.

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let run mode (w : Workloads.t) ~seed ~quick ~spawned_at ~spans_out =
  let trace = Icc_sim.Trace.create () in
  let engine = ref None in
  let first_ns = ref nan and setup_s = ref nan in
  let gc0 = ref (Gc.quick_stat ()) in
  let layers = if mode = Traced then Some (Layers.create ()) else None in
  let on_first () =
    setup_s := Unix.gettimeofday () -. spawned_at;
    if mode = Setup_only then begin
      Marshal.to_channel stdout (Setup !setup_s) [];
      exit 0
    end;
    Icc_crypto.Counters.reset ();
    gc0 := Gc.quick_stat ();
    first_ns := Meter.now_ns ()
  in
  let observer ~time:_ ~seq:_ =
    if Float.is_nan !first_ns then on_first ();
    Option.iter Layers.on_dispatch layers
  in
  let wrap inner (ctx : Icc_core.Runner.transport_ctx) =
    engine := Some ctx.tr_engine;
    Icc_sim.Engine.set_observer ctx.tr_engine observer;
    match layers with Some l -> Layers.wrap l inner ctx | None -> inner ctx
  in
  let due = Meter.Samples.create () in
  let make_tag id =
    (* ids are consecutive from 1 *)
    Meter.Samples.push due (Icc_sim.Engine.now (Option.get !engine));
    assert (due.len = id);
    Icc_smr.Workload.kv_tag id
  in
  let decided = ref [] and end_ns = ref nan in
  Icc_sim.Trace.subscribe ~all:false trace (fun ~time ev ->
      match ev with
      | Block_decided { round; _ } -> decided := (round, time, Meter.now_ns ()) :: !decided
      | Run_end _ -> end_ns := Meter.now_ns ()
      | _ -> ());
  Option.iter (fun l -> Icc_sim.Trace.subscribe ~all:true trace (Layers.sink l)) layers;
  let scenario = Workloads.scenario w ~seed ~quick ~make_tag ~wrap ~trace in
  let r = Icc_core.Runner.run scenario in
  let gc1 = Gc.quick_stat () in
  let counters = Icc_crypto.Counters.snapshot () in
  let run_s = (!end_ns -. !first_ns) *. 1e-9 in
  let decided = List.rev !decided in
  let blocks = List.length decided in
  let blocks_f = float_of_int (max 1 blocks) in
  let decided_at = Hashtbl.create 256 in
  List.iter (fun (round, time, _) -> Hashtbl.replace decided_at round time) decided;
  let chain = match r.outputs with (_, c) :: _ -> c | [] -> [] in
  let chain = List.filter (fun (b : Icc_core.Block.t) -> Hashtbl.mem decided_at b.round) chain in
  let digest =
    Icc_crypto.Sha256.to_hex
      (Icc_crypto.Sha256.digest_string
         (String.concat "" (List.map (fun b -> (Icc_core.Block.hash b :> string)) chain)))
  in
  let decided_ids = Hashtbl.create 4096 in
  let cmd_latencies =
    List.concat_map
      (fun (b : Icc_core.Block.t) ->
        let at = Hashtbl.find decided_at b.round in
        List.map
          (fun (c : Icc_core.Types.command) ->
            Hashtbl.replace decided_ids c.cmd_id ();
            (at -. c.submitted_at) *. 1e3)
          b.payload.commands)
      chain
  in
  let attempted = ref 0 and failed = ref 0 in
  List.iteri
    (fun i t ->
      if t <= r.duration -. grace_s ~quick then begin
        incr attempted;
        if not (Hashtbl.mem decided_ids (i + 1)) then incr failed
      end)
    (Meter.Samples.to_list due);
  let max_gap =
    fst
      (List.fold_left
         (fun (gap, prev) (_, time, _) -> (Float.max gap (time -. prev), time))
         (0., 0.) decided)
  in
  let round_wall_ms =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, prev) (_, _, ns) -> ((ns -. prev) /. 1e6 :: acc, ns))
            ([], !first_ns) decided))
  in
  let commit_ms = List.map (fun s -> s *. 1e3) (Icc_sim.Metrics.latencies r.metrics) in
  let cmds = List.length cmd_latencies in
  (* End-to-end names have no dot; the rest belong to the runner layer.
     Simulated time has units of its own, apart from host time. *)
  let sim =
    [ ("cmd_latency_sim_ms_p50", "sim_ms", Meter.percentile 50. cmd_latencies, cmds);
      ("cmd_latency_sim_ms_p99", "sim_ms", Meter.percentile 99. cmd_latencies, cmds);
      ("cmds_per_sim_s", "1/sim_s", float_of_int cmds /. r.duration, cmds);
      ("decided_frac", "fraction",
       float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted), !attempted);
      ("runner.blocks_per_sim_s", "1/sim_s", float_of_int blocks /. r.duration, blocks);
      ("runner.commit_latency_sim_ms_p50", "sim_ms", Meter.percentile 50. commit_ms,
       List.length commit_ms);
      ("runner.commit_latency_sim_ms_p90", "sim_ms", Meter.percentile 90. commit_ms,
       List.length commit_ms);
      ("runner.max_commit_gap_sim_s", "sim_s", max_gap, blocks) ]
  in
  let failures =
    List.filter_map
      (fun (name, ok) -> if ok then None else Some name)
      [ ("safety_ok", r.safety_ok);
        ("p1_ok", r.p1_ok);
        ("monitor_ok", Option.fold ~none:true ~some:Icc_sim.Monitor.ok r.monitor);
        ("states_consistent", Icc_smr.Replica.states_consistent r.outputs);
        ("decided_some_block", blocks > 0) ]
  in
  let layer_metrics =
    match layers with
    | None -> []
    | Some l ->
        Option.iter (fun path -> Layers.Spans.write l.spans ~origin:!first_ns path) spans_out;
        Layers.metrics l ~result:r ~blocks ~run_s
          ~events:(Icc_sim.Engine.processed (Option.get !engine)) ~counters
  in
  Done
    {
      failures;
      digest;
      setup_s = !setup_s;
      run_s;
      rounds = r.rounds_decided;
      blocks;
      cmds;
      sim;
      peak_heap_mb = heap_mb gc1.top_heap_words;
      attempted = !attempted;
      failed = !failed;
      round_wall_ms;
      gc =
        [ ("gc.minor_words_per_block", "words",
           (gc1.minor_words -. !gc0.minor_words) /. blocks_f);
          ("gc.promoted_words_per_block", "words",
           (gc1.promoted_words -. !gc0.promoted_words) /. blocks_f);
          ("gc.major_collections", "count",
           float_of_int (gc1.major_collections - !gc0.major_collections)) ];
      layers = layer_metrics;
    }

(* --- parent side ---------------------------------------------------------- *)

(* Address-space randomisation moves the OCaml heap's pools and, with
   them, the heap's peak by a pool or two from run to run.  Children run
   without it where setarch(8) can turn it off, so that peak_heap_mb
   repeats exactly for a seed. *)
let no_aslr = lazy (Sys.command "setarch -R true >/dev/null 2>&1" = 0)

(* Run one rep as a child of this executable and read back its reply. *)
let spawn mode (w : Workloads.t) ~seed ~quick ~spans_out =
  let no_aslr = Lazy.force no_aslr in
  let r, wr = Unix.pipe ~cloexec:true () in
  let spawned_at = Unix.gettimeofday () in
  let args =
    (if no_aslr then [ "setarch"; "-R" ] else [])
    @ [ Sys.executable_name; "--child"; string_of_mode mode; w.name;
        string_of_int seed; string_of_bool quick; Printf.sprintf "%.6f" spawned_at ]
    @ Option.to_list spans_out
  in
  let pid =
    Unix.create_process (List.hd args) (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let reply = try (Marshal.from_channel ic : reply) with End_of_file | Failure _ -> Crashed in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match status with Unix.WEXITED 0 -> reply | _ -> Crashed
