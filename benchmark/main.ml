(* The repository benchmark: five seeded ICC workloads, measured end to end
   (host throughput, set-up time and heap of the simulator; the simulated
   protocol's command latency, throughput and decided share) and layer by
   layer (one traced rep per workload, see {!Layers}).

     dune exec benchmark/main.exe -- [--quick] [--seed S] [--workload W]
                                     [--sets K] [--out F] [--spec F]
                                     [--check-schema]

   runs R = 5 timed reps of each workload (1 with --quick), round-robin
   across workloads, then one traced rep each; checks every rep; prints
   every metric with its unit and sample count; and with --out writes them
   as JSON.  --sets K repeats the whole set K times, interleaved, and
   compares the sets.  --check-schema fails unless every metric declared in
   the spec (default BENCHMARK.json) was produced, with its unit and a
   finite value.

     main.exe --workload W --seed S --seconds T --trace 0|1

   is the single-run form: timed reps of W for about T seconds (or, with
   --trace 1, one timed and one traced rep), ending with one JSON line
   {"correct", "attempted", "failed", "metrics"} holding the end-to-end
   (or per-layer) metrics.

   Every rep is a child process of this executable, run one at a time.
   Exit status 0 means every rep passed every check. *)

let find_arg flag =
  let n = Array.length Sys.argv in
  let rec go i =
    if i >= n - 1 then None
    else if String.equal Sys.argv.(i) flag then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let has_flag flag = Array.exists (String.equal flag) Sys.argv

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 2) fmt

let int_arg flag default =
  match find_arg flag with
  | None -> default
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> die "%s expects an integer" flag)

type metric = { name : string; unit_ : string; value : float; samples : int }

(* Per-layer metric names are "<layer>.<metric>"; end-to-end ones have no
   dot. *)
let is_layer name = String.contains name '.'

type result = {
  workload : Workloads.t;
  failures : string list;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  probes : float list;  (* env.probe_ms before each rep *)
}

(* A benchmark-owned memory- and allocation-heavy probe, timed before each
   rep to expose machine-wide slow periods: random writes over a 16 MiB
   array and a churned hash table of small blocks. *)
let probe_ms () =
  let t0 = Meter.now_s () in
  let a = Array.make (1 lsl 21) 0 in
  let h = Hashtbl.create 16 in
  let x = ref 1 in
  for i = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land ((1 lsl 21) - 1) in
    a.(j) <- a.(j) + i;
    if i land 1 = 0 then Hashtbl.replace h (!x land 0xFFFF) (Array.make 8 i)
  done;
  ignore (Sys.opaque_identity (a, h));
  (Meter.now_s () -. t0) *. 1e3

(* The probe runs in a fresh child: repeated in one process it speeds up by
   about 20% as that process's heap settles, which would read as drift. *)
let spawn_probe () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--probe" |] in
  let ms = float_of_string (input_line ic) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ms
  | _ -> die "the probe child failed"

let spans_path (w : Workloads.t) =
  let dir = "benchmark-out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir ("spans-" ^ w.name ^ ".tsv")

(* Fold the replies of one workload's children (set-up-only, timed and
   traced) into its metrics and verdict. *)
let summarise (w : Workloads.t) ~setups ~timed ~traced ~probes =
  let replies = setups @ Option.to_list traced @ timed in
  let crashed = List.exists (function Rep.Crashed -> true | _ -> false) replies in
  let setups =
    List.filter_map
      (function Rep.Setup s -> Some s | Rep.Done o -> Some o.setup_s | Rep.Crashed -> None)
      (setups @ timed)
  in
  let done_ = List.filter_map (function Rep.Done o -> Some o | _ -> None) in
  let outcomes = done_ replies in
  let timed = done_ timed in
  let failures =
    List.sort_uniq compare
      (List.concat_map (fun (o : Rep.outcome) -> o.failures) outcomes
      @ (if crashed || timed = [] then [ "rep_completed" ] else [])
      @
      match outcomes with
      | [] -> []
      | o :: rest ->
          (if List.for_all (fun (p : Rep.outcome) -> p.digest = o.digest) rest then []
           else [ "same_decided_chain" ])
          @
          if List.for_all (fun (p : Rep.outcome) -> p.sim = o.sim) rest then []
          else [ "same_simulated_metrics" ])
  in
  let correct = failures = [] in
  let m name unit_ value samples = { name; unit_; value; samples } in
  let med f l = Meter.median (List.map f l) in
  let count = List.length timed in
  let sim (o : Rep.outcome) =
    List.map
      (fun (name, unit_, v, samples) ->
        m name unit_ (if name = "decided_frac" && not correct then 0. else v) samples)
      o.sim
  in
  let e2e =
    match timed with
    | [] -> []
    | first :: _ ->
        (* Best of the reps: slow periods of a shared machine only ever
           subtract from throughput, so the fastest rep is the steadiest
           estimate of the code's own speed. *)
        [ m "sim_rounds_per_s" "1/s"
            (Meter.max_list
               (List.map (fun (o : Rep.outcome) -> float_of_int o.rounds /. o.run_s) timed))
            count;
          m "setup_s" "s" (Meter.median setups) (List.length setups);
          m "peak_heap_mb" "MB" (med (fun (o : Rep.outcome) -> o.peak_heap_mb) timed) count ]
        @ List.filter (fun x -> not (is_layer x.name)) (sim first)
  in
  let layers =
    match (traced, timed) with
    | Some (Rep.Done tr), first :: _ ->
        let walls = List.concat_map (fun (o : Rep.outcome) -> o.round_wall_ms) timed in
        List.map (fun (name, unit_, value) -> m name unit_ value 1) tr.layers
        @ List.filter (fun x -> is_layer x.name) (sim first)
        @ [ m "runner.round_wall_ms_p50" "ms" (Meter.percentile 50. walls) (List.length walls);
            m "runner.round_wall_ms_p90" "ms" (Meter.percentile 90. walls) (List.length walls);
            m "runner.cmds_per_block" "count"
              (float_of_int first.cmds /. float_of_int (max 1 first.blocks))
              first.blocks ]
        @ List.mapi
            (fun i (name, unit_, _) ->
              let value (o : Rep.outcome) = match List.nth o.gc i with _, _, v -> v in
              m name unit_ (med value timed) count)
            first.gc
        @ [ m "trace.overhead_frac" "fraction"
              ((tr.run_s /. med (fun (o : Rep.outcome) -> o.run_s) timed) -. 1.)
              count ]
    | _ -> []
  in
  let attempted, failed =
    List.fold_left (fun (a, f) (o : Rep.outcome) -> (a + o.attempted, f + o.failed)) (0, 0) timed
  in
  { workload = w; failures; attempted; failed = (if correct then failed else attempted);
    e2e; layers; probes }

(* --- output ----------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"samples\": %d}" m.name
             (json_num m.value) m.unit_ m.samples)
         metrics)
  ^ "}"

let print_result ~seed r =
  Printf.printf "== %s  seed %d  correct: %s  commands attempted %d, failed %d\n"
    r.workload.name seed
    (if r.failures = [] then "yes" else "NO (" ^ String.concat ", " r.failures ^ ")")
    r.attempted r.failed;
  List.iter
    (fun m -> Printf.printf "  %-42s %14.6g %-8s (n=%d)\n" m.name m.value m.unit_ m.samples)
    (r.e2e @ r.layers);
  if r.probes <> [] then
    Printf.printf "  %-42s %14.6g %-8s (n=%d)\n" "env.probe_ms" (Meter.median r.probes) "ms"
      (List.length r.probes)

let result_json ~seed r =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"correct\": %b, \"failures\": [%s], \"attempted\": %d, \"failed\": %d, \"env.probe_ms\": %s, \"end_to_end\": %s, \"per_layer\": %s}"
    r.workload.name seed (r.failures = [])
    (String.concat ", " (List.map (Printf.sprintf "%S") r.failures))
    r.attempted r.failed
    (json_num (Meter.median r.probes))
    (json_metrics r.e2e) (json_metrics r.layers)

(* Every declared metric present, with its declared unit and a finite
   value, and nothing undeclared. *)
let schema_problems (spec : Spec.t) results =
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  (if names = spec.workloads then []
   else [ "workloads differ from the spec: " ^ String.concat ", " names ])
  @ List.concat_map
      (fun r ->
        let check section declared produced =
          List.filter_map
            (fun (d : Spec.metric) ->
              match List.find_opt (fun m -> m.name = d.name) produced with
              | None -> Some (Printf.sprintf "%s: %s %s missing" r.workload.name section d.name)
              | Some m when m.unit_ <> d.unit_ ->
                  Some (Printf.sprintf "%s: %s unit %s, declared %s" r.workload.name m.name m.unit_ d.unit_)
              | Some m when not (Float.is_finite m.value) ->
                  Some (Printf.sprintf "%s: %s is not finite" r.workload.name m.name)
              | Some _ -> None)
            declared
          @ List.filter_map
              (fun m ->
                if Spec.find declared m.name = None then
                  Some (Printf.sprintf "%s: %s %s undeclared" r.workload.name section m.name)
                else None)
              produced
        in
        check "end_to_end" spec.end_to_end r.e2e @ check "per_layer" spec.per_layer r.layers)
      results

(* --- modes ------------------------------------------------------------------ *)

let child () =
  let arg i = if i < Array.length Sys.argv then Sys.argv.(i) else die "--child: missing argument" in
  let w = match Workloads.find (arg 3) with Some w -> w | None -> die "unknown workload" in
  let reply =
    Rep.run (Rep.mode_of_string (arg 2)) w ~seed:(int_of_string (arg 4))
      ~quick:(bool_of_string (arg 5)) ~spawned_at:(float_of_string (arg 6))
      ~spans_out:(if Array.length Sys.argv > 7 then Some Sys.argv.(7) else None)
  in
  Marshal.to_channel stdout reply [];
  exit 0

(* Set-up takes milliseconds and is noisy, so it is sampled far more often
   than the reps alone would: this many set-up-only children before every
   timed rep, which spreads the samples over the same stretch of time as
   the reps. *)
let setups_per_rep ~quick = if quick then 3 else 12

(* One timed rep, preceded by its set-up-only children: the set-up
   replies, and the timed rep's. *)
let timed_rep w ~seed ~quick =
  let spawn mode = Rep.spawn mode w ~seed ~quick ~spans_out:None in
  let setups = List.init (setups_per_rep ~quick) (fun _ -> spawn Rep.Setup_only) in
  (setups, spawn Rep.Timed)

let single_run (w : Workloads.t) ~seed ~seconds ~traced =
  let r =
    if traced then
      let timed = [ Rep.spawn Rep.Timed w ~seed ~quick:false ~spans_out:None ] in
      let tr = Rep.spawn Rep.Traced w ~seed ~quick:false ~spans_out:(Some (spans_path w)) in
      summarise w ~setups:[] ~timed ~traced:(Some tr) ~probes:[]
    else begin
      let t0 = Meter.now_s () in
      (* start another rep only if it should end within the budget *)
      let rec loop setups timed last =
        if timed <> [] && Meter.now_s () -. t0 +. last > seconds then (setups, List.rev timed)
        else
          let s = Meter.now_s () in
          let setups', o = timed_rep w ~seed ~quick:false in
          loop (setups' @ setups) (o :: timed) (Meter.now_s () -. s)
      in
      let setups, timed = loop [] [] 0. in
      summarise w ~setups ~timed ~traced:None ~probes:[]
    end
  in
  print_result ~seed r;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failures = []) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_num m.value) m.unit_)
          (if traced then r.layers else r.e2e)));
  exit (if r.failures = [] then 0 else 1)

(* Set [k]'s end-to-end values against set 1's, judged by the spec's
   bounds. *)
let compare_sets ~spec sets =
  match sets with
  | first :: (_ :: _ as rest) ->
      List.iteri
        (fun wi r1 ->
          List.iter
            (fun m1 ->
              let bound =
                Option.bind spec (fun (s : Spec.t) ->
                    Option.bind (Spec.find s.end_to_end m1.name) (fun d -> d.bound))
              in
              let verdict rs =
                let v = (List.find (fun m -> m.name = m1.name) (List.nth rs wi).e2e).value in
                let rel = (v -. m1.value) /. Float.abs m1.value in
                Printf.sprintf "%12.6g (%s)" v
                  (if v = m1.value then "same"
                   else
                     Printf.sprintf "%+.1f%%%s" (100. *. rel)
                       (match bound with
                       | Some b when Float.abs rel <= b -> ", within bound"
                       | Some _ -> ", OUTSIDE BOUND"
                       | None -> ""))
              in
              Printf.printf "  %-16s %-24s %12.6g  %s\n" r1.workload.name m1.name m1.value
                (String.concat "  " (List.map verdict rest)))
            r1.e2e)
        first
  | _ -> ()

(* [sets] full sets, interleaved: each round runs one timed rep of every
   workload of every set, so a slow period of the machine lands on all
   sets alike; the traced reps follow the last round. *)
let suite workloads ~seed ~quick ~reps ~sets ~out ~spec ~check_schema =
  let keys = List.concat_map (fun s -> List.map (fun w -> (s, w)) workloads) (List.init sets Fun.id) in
  let setups = Hashtbl.create 16 and timed = Hashtbl.create 16 and probes = Hashtbl.create 16 in
  let add tbl (s, (w : Workloads.t)) x =
    Hashtbl.replace tbl (s, w.name) (x :: Option.value ~default:[] (Hashtbl.find_opt tbl (s, w.name)))
  in
  let get tbl (s, (w : Workloads.t)) = List.rev (Hashtbl.find tbl (s, w.name)) in
  let round_probes =
    List.init reps (fun _ ->
        Meter.median
          (List.map
             (fun ((_, w) as key) ->
               let p = spawn_probe () in
               add probes key p;
               let setups', o = timed_rep w ~seed ~quick in
               List.iter (add setups key) setups';
               add timed key o;
               p)
             keys))
  in
  let results =
    List.map
      (fun ((s, (w : Workloads.t)) as key) ->
        let traced = Rep.spawn Rep.Traced w ~seed ~quick ~spans_out:(Some (spans_path w)) in
        (s, summarise w ~setups:(get setups key) ~timed:(get timed key) ~traced:(Some traced)
              ~probes:(get probes key)))
      keys
  in
  let by_set = List.init sets (fun s -> List.filter_map (fun (s', r) -> if s = s' then Some r else None) results) in
  List.iteri
    (fun i rs ->
      Printf.printf "-- set %d of %d\n" (i + 1) sets;
      List.iter (print_result ~seed) rs)
    by_set;
  let drift =
    List.fold_left Float.max neg_infinity round_probes
    /. List.fold_left Float.min infinity round_probes -. 1.
  in
  Printf.printf "-- env.probe_ms per round: %s; drift %.1f%%%s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.2f") round_probes))
    (100. *. drift)
    (if drift > 0.10 then " -- NOISY: the machine changed speed during the run" else "");
  compare_sets ~spec by_set;
  let problems =
    if not check_schema then []
    else
      match spec with
      | None -> [ "no spec to check against" ]
      | Some s -> schema_problems s (List.map snd results)
  in
  List.iter (fun p -> Printf.printf "schema: %s\n" p) problems;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "{\"seed\": %d, \"quick\": %b, \"probe_drift\": %s, \"sets\": [%s]}\n"
            seed quick (json_num drift)
            (String.concat ", "
               (List.map
                  (fun rs -> "[" ^ String.concat ", " (List.map (result_json ~seed) rs) ^ "]")
                  by_set))))
    out;
  let ok = problems = [] && List.for_all (fun (_, r) -> r.failures = []) results in
  exit (if ok then 0 else 1)

let () =
  if has_flag "--probe" then begin
    Printf.printf "%.17g\n" (probe_ms ());
    exit 0
  end;
  if has_flag "--child" then child ();
  let seed = int_arg "--seed" 11 in
  let workloads =
    match find_arg "--workload" with
    | None -> Workloads.all
    | Some name -> (
        match Workloads.find name with Some w -> [ w ] | None -> die "unknown workload %s" name)
  in
  match find_arg "--seconds" with
  | Some s ->
      let seconds = match float_of_string_opt s with Some v -> v | None -> die "bad --seconds" in
      let w = match workloads with [ w ] -> w | _ -> die "--seconds needs --workload" in
      single_run w ~seed ~seconds ~traced:(int_arg "--trace" 0 = 1)
  | None ->
      let quick = has_flag "--quick" in
      let spec_path = Option.value ~default:"BENCHMARK.json" (find_arg "--spec") in
      let spec =
        match Spec.load spec_path with
        | Ok s -> Some s
        | Error msg ->
            if has_flag "--check-schema" then die "%s" msg;
            None
      in
      suite workloads ~seed ~quick ~reps:(if quick then 1 else 5)
        ~sets:(int_arg "--sets" 1) ~out:(find_arg "--out") ~spec
        ~check_schema:(has_flag "--check-schema")
