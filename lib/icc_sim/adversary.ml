(* Composable Byzantine adversary strategies.

   One instance serves two interposition surfaces: the protocol layer
   (Icc_core.Party queries equivocation/withholding/crash windows per
   round) and the network (on_send applies censorship, straggling, delay
   and — via an optional kind classifier — share withholding for baseline
   protocols without party hooks).

   Determinism discipline (same as Fault): the instance owns a private Rng
   stream; probabilistic draws happen unconditionally for every matching
   rule in script order, never gated by tracing or by an earlier rule's
   outcome, so the draw sequence is a pure function of the deterministic
   call order and one seed + script reproduces the same attack whether or
   not anyone watches the bus. *)

type share_class = Beacon | Notar | Final

type action =
  | Equivocate of { noisy : bool }
  | Withhold of { beacon : bool; notar : bool; final : bool; p : float }
  | Censor of { dsts : int list }
  | Delay of { by : float }
  | Crash_window
  | Straggle of { p : float }

type target = Party of int | Any
type trigger = Always | On_round of int | On_rank of int

type directive = {
  who : target;
  from_ : float;
  until : float;
  trigger : trigger;
  action : action;
  max_corrupt : int;
}

type script = directive list

(* --- script constructors ------------------------------------------------ *)

let mk ?(from_ = 0.) ?(until = infinity) who action =
  { who; from_; until; trigger = Always; action; max_corrupt = max_int }

let equivocate ?(noisy = false) ?from_ ?until party =
  mk ?from_ ?until (Party party) (Equivocate { noisy })

let withhold ?beacon ?notar ?final ?(p = 1.) ?from_ ?until party =
  (* no flag given = withhold everything; any flag given = only those *)
  let all_default = beacon = None && notar = None && final = None in
  let flag v = Option.value v ~default:all_default in
  mk ?from_ ?until (Party party)
    (Withhold { beacon = flag beacon; notar = flag notar; final = flag final; p })

let censor ~dsts ?from_ ?until party = mk ?from_ ?until (Party party) (Censor { dsts })
let delay ~by ?from_ ?until party = mk ?from_ ?until (Party party) (Delay { by })

let crash_window ~from_ ~until party =
  mk ~from_ ~until (Party party) Crash_window

let straggle ~p ?from_ ?until party =
  mk ?from_ ?until (Party party) (Straggle { p })

let adaptive ?from_ ?until ?on_round ?rank ~max_corrupt action =
  let trigger =
    match (rank, on_round) with
    | Some k, _ -> On_rank k
    | None, Some r -> On_round r
    | None, None -> Always
  in
  { (mk ?from_ ?until Any action) with trigger; max_corrupt }

(* --- static analysis ---------------------------------------------------- *)

let static_corrupt script =
  List.filter_map
    (fun d -> match d.who with Party p -> Some p | Any -> None)
    script
  |> List.sort_uniq Int.compare

let static_crash_wakes script =
  List.filter_map
    (fun d ->
      match (d.who, d.action) with
      | Party p, Crash_window when Float.is_finite d.until ->
          Some (d.until, p)
      | ( (Party _ | Any),
          ( Equivocate _ | Withhold _ | Censor _ | Delay _ | Crash_window
          | Straggle _ ) ) ->
          None)
    script
  |> List.stable_sort (fun (a, pa) (b, pb) ->
         match Float.compare a b with 0 -> Int.compare pa pb | c -> c)

(* --- instance ----------------------------------------------------------- *)

type t = {
  rng : Rng.t;
  trace : Trace.t;
  n : int;
  classify : (string -> share_class option) option;
  script : directive array;
  active : (int * int, unit) Hashtbl.t; (* (directive index, party) *)
  counts : int array; (* per-directive distinct parties corrupted *)
  corrupt : (int, unit) Hashtbl.t;
}

let create ~rng ~trace ~n ?classify script =
  ignore n;
  {
    rng;
    trace;
    n;
    classify;
    script = Array.of_list script;
    active = Hashtbl.create 8;
    counts = Array.make (List.length script) 0;
    corrupt = Hashtbl.create 8;
  }

let script t = Array.to_list t.script

let strategy_name = function
  | Equivocate { noisy } -> if noisy then "equivocate-noisy" else "equivocate"
  | Withhold _ -> "withhold"
  | Censor _ -> "censor"
  | Delay _ -> "delay"
  | Crash_window -> "crash"
  | Straggle _ -> "straggle"

let emit_detail t ~now ev =
  if Trace.detailed t.trace then Trace.emit t.trace ~time:now (ev ())

let in_window d now = now >= d.from_ && now < d.until

let activate t ~now ~party ~round i d =
  if not (Hashtbl.mem t.active (i, party)) && t.counts.(i) < d.max_corrupt
  then begin
    Hashtbl.replace t.active (i, party) ();
    t.counts.(i) <- t.counts.(i) + 1;
    Hashtbl.replace t.corrupt party ();
    Trace.emit t.trace ~time:now
      (Trace.Adv_corrupt { party; round; strategy = strategy_name d.action })
  end

let note_round t ~now ~party ~round ~rank =
  Array.iteri
    (fun i d ->
      let who_ok = match d.who with Party p -> p = party | Any -> true in
      let trig_ok =
        match d.trigger with
        | Always -> true
        | On_round r -> round >= r
        | On_rank k -> rank = k
      in
      if who_ok && trig_ok && in_window d now then
        activate t ~now ~party ~round i d)
    t.script

(* A directive applies to [party] at [now] once activated.  Statically
   targeted Always directives are also live without a note_round call —
   the baseline protocols have no party hooks, so their activation (and
   the Adv_corrupt announcement) happens at the first matching send. *)
let iter_applying t ~now ~party f =
  Array.iteri
    (fun i d ->
      let live =
        Hashtbl.mem t.active (i, party)
        ||
        match (d.who, d.trigger) with
        | Party p, Always when p = party ->
            activate t ~now ~party ~round:0 i d;
            Hashtbl.mem t.active (i, party)
        | (Party _ | Any), (Always | On_round _ | On_rank _) -> false
      in
      if live && in_window d now then f d)
    t.script

let equivocation t ~now ~party =
  let r = ref None in
  iter_applying t ~now ~party (fun d ->
      match d.action with
      | Equivocate { noisy } ->
          r := Some (noisy || !r = Some true)
      | Withhold _ | Censor _ | Delay _ | Crash_window | Straggle _ -> ());
  !r

let class_kind = function
  | Beacon -> "beacon-share"
  | Notar -> "notarization-share"
  | Final -> "finalization-share"

let withholds t ~now ~party ~round cls =
  let hit = ref false in
  iter_applying t ~now ~party (fun d ->
      match d.action with
      | Withhold w ->
          let flagged =
            match cls with
            | Beacon -> w.beacon
            | Notar -> w.notar
            | Final -> w.final
          in
          if flagged && Rng.float t.rng 1.0 < w.p then hit := true
      | Equivocate _ | Censor _ | Delay _ | Crash_window | Straggle _ -> ());
  if !hit then
    emit_detail t ~now (fun () ->
        Trace.Adv_withhold { party; round; kind = class_kind cls });
  !hit

let crashed_now t ~now ~party =
  let r = ref false in
  iter_applying t ~now ~party (fun d ->
      match d.action with
      | Crash_window -> r := true
      | Equivocate _ | Withhold _ | Censor _ | Delay _ | Straggle _ -> ());
  !r

type send_verdict = { av_drop : bool; av_delay : float }

let on_send t ~now ~src ~dst ~kind =
  let drop = ref false and extra = ref 0. in
  iter_applying t ~now ~party:src (fun d ->
      match d.action with
      | Censor { dsts } ->
          if List.mem dst dsts then begin
            drop := true;
            emit_detail t ~now (fun () -> Trace.Adv_censor { src; dst; kind })
          end
      | Straggle { p } ->
          (* draw always: stream shape independent of the outcome *)
          let hit = Rng.float t.rng 1.0 < p in
          if hit then begin
            drop := true;
            emit_detail t ~now (fun () -> Trace.Adv_straggle { src; dst; kind })
          end
      | Delay { by } ->
          extra := !extra +. by;
          emit_detail t ~now (fun () -> Trace.Adv_delay { src; dst; kind; by })
      | Crash_window ->
          (* party-level interposition already silences crashed senders;
             this catches baseline protocols without party hooks *)
          drop := true
      | Withhold w -> (
          match t.classify with
          | None -> () (* protocol layer withholds before the send *)
          | Some classify -> (
              match classify kind with
              | None -> ()
              | Some cls ->
                  let flagged =
                    match cls with
                    | Beacon -> w.beacon
                    | Notar -> w.notar
                    | Final -> w.final
                  in
                  if flagged && Rng.float t.rng 1.0 < w.p then begin
                    drop := true;
                    emit_detail t ~now (fun () ->
                        Trace.Adv_withhold { party = src; round = 0; kind })
                  end))
      | Equivocate _ -> ());
  { av_drop = !drop; av_delay = !extra }

let corrupted t =
  Hashtbl.fold (fun p () acc -> p :: acc) t.corrupt []
  |> List.sort Int.compare

(* --- JSON scripts ------------------------------------------------------- *)

module J = Icc_obs.Json

let directive_of_obj fields =
  let find name = List.assoc_opt name fields in
  let num = Fault.num fields in
  let int_opt name = Option.map (Fault.integer name) (find name) in
  let bool_opt name =
    match find name with
    | Some (J.Bool b) -> Some b
    | Some (J.Null | J.Int _ | J.Float _ | J.String _ | J.Array _ | J.Object _) ->
        raise (Fault.Script_error (name ^ ": expected bool"))
    | None -> None
  in
  let window () = (num ~default:0. "from", num ~default:infinity "until") in
  let kind =
    match find "adversary" with
    | Some (J.String s) -> s
    | Some (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.Array _ | J.Object _)
    | None ->
        raise (Fault.Script_error "directive needs an \"adversary\" string field")
  in
  let action =
    match kind with
    | "equivocate" ->
        Equivocate { noisy = Option.value ~default:false (bool_opt "noisy") }
    | "withhold" ->
        let beacon = bool_opt "beacon"
        and notar = bool_opt "notar"
        and final = bool_opt "final" in
        let all_default = beacon = None && notar = None && final = None in
        let flag v = Option.value v ~default:all_default in
        Withhold
          {
            beacon = flag beacon;
            notar = flag notar;
            final = flag final;
            p = num ~default:1. "p";
          }
    | "censor" ->
        let dsts =
          match find "dsts" with
          | Some (J.Array ids) -> List.map (Fault.integer "dsts") ids
          | Some (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.Object _)
          | None ->
              raise (Fault.Script_error "censor needs a \"dsts\" array")
        in
        Censor { dsts }
    | "delay" -> Delay { by = num "by" }
    | "crash" -> Crash_window
    | "straggle" -> Straggle { p = num "p" }
    | other ->
        raise (Fault.Script_error (Printf.sprintf "unknown adversary kind %S" other))
  in
  let from_, until = window () in
  (if action = Crash_window && not (Float.is_finite until) then
     raise (Fault.Script_error "crash window needs a finite \"until\""));
  match int_opt "party" with
  | Some party ->
      { who = Party party; from_; until; trigger = Always; action;
        max_corrupt = max_int }
  | None ->
      let trigger =
        match (int_opt "rank", int_opt "on_round") with
        | Some k, _ -> On_rank k
        | None, Some r -> On_round r
        | None, None -> Always
      in
      let max_corrupt =
        match int_opt "max" with
        | Some m -> m
        | None ->
            raise
              (Fault.Script_error
                 "adaptive directive (no \"party\") needs a \"max\" budget")
      in
      { who = Any; from_; until; trigger; action; max_corrupt }

let script_of_json = Fault.directives_of_json directive_of_obj
