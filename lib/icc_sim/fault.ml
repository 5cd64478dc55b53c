(* Deterministic fault injection (a Jepsen-style "nemesis").

   The network consults [on_transmit] once per remote transmission; the
   verdict carries the copies to deliver (with extra per-copy delay) and an
   administrative release floor for down links.  Probabilistic draws come
   from a private RNG stream and happen unconditionally for every matching
   rule — never short-circuited by tracing, hold state or an earlier drop —
   so the draw sequence is a pure function of the (deterministic)
   transmission order and the same seed + script reproduce the same faults
   whether or not anyone is watching the bus. *)

type action =
  | Drop of { p : float }
  | Duplicate of { p : float; spread : float }
  | Reorder of { p : float; max_extra : float }
  | Flap of { period : float; up : float }

type directive =
  | Rule of {
      from_ : float;
      until : float;
      src : int option;
      dst : int option;
      action : action;
    }
  | Partition of { from_ : float; until : float; groups : int list list }
  | Crash of { party : int; at : float }
  | Recover of { party : int; at : float }

type script = directive list

(* --- script constructors ------------------------------------------------ *)

let rule ?(from_ = 0.) ?(until = infinity) ?src ?dst action =
  Rule { from_; until; src; dst; action }

let drop ?from_ ?until ?src ?dst p = rule ?from_ ?until ?src ?dst (Drop { p })

let duplicate ?from_ ?until ?src ?dst ?(spread = 0.05) p =
  rule ?from_ ?until ?src ?dst (Duplicate { p; spread })

let reorder ?from_ ?until ?src ?dst ?(max_extra = 0.25) p =
  rule ?from_ ?until ?src ?dst (Reorder { p; max_extra })

let flap ?from_ ?until ?src ?dst ~period ?(up = 0.5) () =
  rule ?from_ ?until ?src ?dst (Flap { period; up })

let partition ~from_ ~until groups = Partition { from_; until; groups }

let crash_recover ~party ~down ~up =
  [ Crash { party; at = down }; Recover { party; at = up } ]

(* --- instance ----------------------------------------------------------- *)

type t = { rng : Rng.t; trace : Trace.t; script : script }

let create ~rng ~trace script = { rng; trace; script }
let script t = t.script

type verdict = { deliveries : float list; release_floor : float }

let emit_detail t ~now ev =
  if Trace.detailed t.trace then Trace.emit t.trace ~time:now (ev ())

(* Index of the partition group containing [id]; None when unlisted. *)
let group_of (groups : int list list) id =
  let rec go i = function
    | [] -> None
    | g :: rest -> if List.mem id g then Some i else go (i + 1) rest
  in
  go 0 groups

let severed groups a b =
  match (group_of groups a, group_of groups b) with
  | Some ga, Some gb -> ga <> gb
  | _ -> false

let on_transmit t ~now ~src ~dst ~kind =
  let dropped = ref false in
  let extra = ref 0. in
  let dups = ref [] in
  let floor_ = ref neg_infinity in
  let matches from_ until s d =
    now >= from_ && now < until
    && (match s with None -> true | Some id -> id = src)
    && match d with None -> true | Some id -> id = dst
  in
  List.iter
    (fun directive ->
      match directive with
      | Rule r when matches r.from_ r.until r.src r.dst -> (
          match r.action with
          | Drop { p } -> if Rng.float t.rng 1.0 < p then dropped := true
          | Duplicate { p; spread } ->
              (* Two draws always: the decision and the duplicate's offset,
                 keeping the stream shape independent of the outcome. *)
              let hit = Rng.float t.rng 1.0 < p in
              let offset = Rng.float t.rng spread in
              if hit then dups := offset :: !dups
          | Reorder { p; max_extra } ->
              let hit = Rng.float t.rng 1.0 < p in
              let offset = Rng.float t.rng max_extra in
              if hit then extra := !extra +. offset
          | Flap { period; up } ->
              let phase = Float.rem (now -. r.from_) period in
              if phase >= up *. period then begin
                (* Down-phase: the link reopens at the next cycle start. *)
                let cycle = Float.of_int (int_of_float ((now -. r.from_) /. period)) in
                floor_ := Float.max !floor_ (r.from_ +. ((cycle +. 1.) *. period))
              end)
      | Partition { from_; until; groups } when now >= from_ && now < until ->
          if severed groups src dst then floor_ := Float.max !floor_ until
      | Rule _ | Partition _ | Crash _ | Recover _ -> ())
    t.script;
  if !dropped then begin
    emit_detail t ~now (fun () -> Trace.Fault_drop { src; dst; kind });
    { deliveries = []; release_floor = !floor_ }
  end
  else begin
    if !dups <> [] then
      emit_detail t ~now (fun () ->
          Trace.Fault_duplicate
            { src; dst; kind; copies = 1 + List.length !dups });
    if !extra > 0. then
      emit_detail t ~now (fun () ->
          Trace.Fault_reorder { src; dst; kind; extra = !extra });
    if !floor_ > now then
      emit_detail t ~now (fun () ->
          Trace.Fault_link_down { src; dst; kind; release = !floor_ });
    (* Duplicates inherit the primary copy's reorder delay plus their own
       spread offset, so a duplicate never overtakes its original. *)
    let deliveries = !extra :: List.map (fun o -> !extra +. o) !dups in
    { deliveries; release_floor = !floor_ }
  end

(* --- crash/recover extraction ------------------------------------------ *)

let crash_schedule script =
  List.filter_map
    (function
      | Crash { party; at } -> Some (at, `Crash, party)
      | Recover { party; at } -> Some (at, `Recover, party)
      | Rule _ | Partition _ -> None)
    script
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)

let finally_down script =
  let last : (int, float * bool) Hashtbl.t = Hashtbl.create 8 in
  let note party at is_down =
    match Hashtbl.find_opt last party with
    | Some (t, _) when t > at -> ()
    | _ -> Hashtbl.replace last party (at, is_down)
  in
  List.iter
    (function
      | Crash { party; at } -> note party at true
      | Recover { party; at } -> note party at false
      | Rule _ | Partition _ -> ())
    script;
  (* canonical ascending-party order: this list reaches the runner's honest
     set and from there the oracle verdicts, so flap-state bucket order
     must not leak (D2) *)
  Hashtbl.fold
    (fun party (_, is_down) acc -> if is_down then party :: acc else acc)
    last []
  |> List.sort Int.compare

(* --- JSON scripts ------------------------------------------------------- *)

module J = Icc_obs.Json

(* The generic tree and reader the repository benchmark's spec loader
   (benchmark/spec.ml) names: a view of {!Icc_obs.Json}'s. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Script_error of string

let rec of_json : J.t -> json = function
  | J.Null -> Jnull
  | J.Bool b -> Jbool b
  | J.Int i -> Jnum (float_of_int i)
  | J.Float f -> Jnum f
  | J.String s -> Jstr s
  | J.Array l -> Jarr (List.map of_json l)
  | J.Object kv -> Jobj (List.map (fun (k, v) -> (k, of_json v)) kv)

let parse_json text =
  match J.parse text with Ok v -> of_json v | Error msg -> raise (Script_error msg)

let num fields ?default name =
  match (List.assoc_opt name fields, default) with
  | Some v, _ -> (
      match J.number v with
      | Some f -> f
      | None -> raise (Script_error (name ^ ": expected number")))
  | None, Some d -> d
  | None, None -> raise (Script_error ("missing field " ^ name))

(* Ids, ranks and budgets must be integral JSON numbers: party 2.7 is
   rejected, not truncated to 2. *)
let integer name v =
  match J.number v with
  | Some f when Float.is_integer f -> int_of_float f
  | Some _ | None -> raise (Script_error (name ^ ": expected an integer"))

let directives_of_json directive text =
  match J.parse text with
  | Error msg -> Error msg
  | Ok (J.Array items) -> (
      match
        List.map
          (function
            | J.Object fields -> directive fields
            | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.Array _ ->
                raise (Script_error "expected an array of objects"))
          items
      with
      | script -> Ok script
      | exception Script_error msg -> Error msg)
  | Ok (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.Object _) ->
      Error "expected a top-level array of directives"

let directive_of_obj fields =
  let num = num fields in
  let int_opt name = Option.map (integer name) (List.assoc_opt name fields) in
  let party name =
    match int_opt name with
    | Some id -> id
    | None -> raise (Script_error ("missing field " ^ name))
  in
  let window () = (num ~default:0. "from", num ~default:infinity "until") in
  let link action =
    let from_, until = window () in
    Rule { from_; until; src = int_opt "src"; dst = int_opt "dst"; action }
  in
  match List.assoc_opt "fault" fields with
  | Some (J.String "drop") -> link (Drop { p = num "p" })
  | Some (J.String ("dup" | "duplicate")) ->
      link (Duplicate { p = num "p"; spread = num ~default:0.05 "spread" })
  | Some (J.String "reorder") ->
      link (Reorder { p = num "p"; max_extra = num ~default:0.25 "max_extra" })
  | Some (J.String "flap") ->
      link (Flap { period = num "period"; up = num ~default:0.5 "up" })
  | Some (J.String "partition") ->
      let from_, until = window () in
      let groups =
        match List.assoc_opt "groups" fields with
        | Some (J.Array gs) ->
            List.map
              (function
                | J.Array ids -> List.map (integer "groups") ids
                | J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.Object _
                  ->
                    raise (Script_error "groups: expected array of arrays"))
              gs
        | Some (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.Object _)
        | None ->
            raise (Script_error "partition needs a \"groups\" array")
      in
      Partition { from_; until; groups }
  | Some (J.String "crash") -> Crash { party = party "party"; at = num "at" }
  | Some (J.String "recover") -> Recover { party = party "party"; at = num "at" }
  | Some (J.String other) ->
      raise (Script_error (Printf.sprintf "unknown fault kind %S" other))
  | Some (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.Array _ | J.Object _) | None ->
      raise (Script_error "directive needs a \"fault\" string field")

let script_of_json = directives_of_json directive_of_obj
