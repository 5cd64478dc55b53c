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

(* A minimal recursive JSON reader for nemesis script files.  Unlike the
   flat-object parser in {!Trace}, scripts nest (partition groups), so this
   one handles arrays and objects generically.  It accepts standard JSON
   minus exotic escapes; errors carry a byte offset. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Script_error of string

let parse_json text =
  let len = String.length text in
  let pos = ref 0 in
  let fail msg =
    raise (Script_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < len
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < len && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if
      !pos + String.length word <= len
      && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match text.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= len then fail "truncated escape";
          let c = text.[!pos] in
          incr pos;
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | _ -> fail "unsupported escape");
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while !pos < len && numchar text.[!pos] do incr pos done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Jarr []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items := parse_value () :: !items;
                more ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          more ();
          Jarr (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Jobj []
        end
        else begin
          let member () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            (key, parse_value ())
          in
          let fields = ref [ member () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields := member () :: !fields;
                more ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          more ();
          Jobj (List.rev !fields)
        end
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

(* A party id must be an integral JSON number: 2.7 is not party 2. *)
let party_id name f =
  if Float.is_integer f then int_of_float f
  else raise (Script_error (name ^ ": expected an integer party id"))

let directive_of_obj fields =
  let find name = List.assoc_opt name fields in
  let num ?default name =
    match find name with
    | Some (Jnum f) -> f
    | Some (Jnull | Jbool _ | Jstr _ | Jarr _ | Jobj _) ->
        raise (Script_error (name ^ ": expected number"))
    | None -> (
        match default with
        | Some d -> d
        | None -> raise (Script_error ("missing field " ^ name)))
  in
  let int_opt name =
    match find name with
    | Some (Jnum f) -> Some (party_id name f)
    | Some (Jnull | Jbool _ | Jstr _ | Jarr _ | Jobj _) ->
        raise (Script_error (name ^ ": expected number"))
    | None -> None
  in
  let window () = (num ~default:0. "from", num ~default:infinity "until") in
  let kind =
    match find "fault" with
    | Some (Jstr s) -> s
    | Some (Jnull | Jbool _ | Jnum _ | Jarr _ | Jobj _) | None ->
        raise (Script_error "directive needs a \"fault\" string field")
  in
  match kind with
  | "drop" ->
      let from_, until = window () in
      Rule
        {
          from_;
          until;
          src = int_opt "src";
          dst = int_opt "dst";
          action = Drop { p = num "p" };
        }
  | "dup" | "duplicate" ->
      let from_, until = window () in
      Rule
        {
          from_;
          until;
          src = int_opt "src";
          dst = int_opt "dst";
          action = Duplicate { p = num "p"; spread = num ~default:0.05 "spread" };
        }
  | "reorder" ->
      let from_, until = window () in
      Rule
        {
          from_;
          until;
          src = int_opt "src";
          dst = int_opt "dst";
          action =
            Reorder { p = num "p"; max_extra = num ~default:0.25 "max_extra" };
        }
  | "flap" ->
      let from_, until = window () in
      Rule
        {
          from_;
          until;
          src = int_opt "src";
          dst = int_opt "dst";
          action = Flap { period = num "period"; up = num ~default:0.5 "up" };
        }
  | "partition" ->
      let from_, until = window () in
      let groups =
        match find "groups" with
        | Some (Jarr gs) ->
            List.map
              (function
                | Jarr ids ->
                    List.map
                      (function
                        | Jnum f -> party_id "groups" f
                        | Jnull | Jbool _ | Jstr _ | Jarr _ | Jobj _ ->
                            raise (Script_error "groups: expected party id"))
                      ids
                | Jnull | Jbool _ | Jnum _ | Jstr _ | Jobj _ ->
                    raise (Script_error "groups: expected array of arrays"))
              gs
        | Some (Jnull | Jbool _ | Jnum _ | Jstr _ | Jobj _) | None ->
            raise (Script_error "partition needs a \"groups\" array")
      in
      Partition { from_; until; groups }
  | "crash" ->
      Crash { party = party_id "party" (num "party"); at = num "at" }
  | "recover" ->
      Recover { party = party_id "party" (num "party"); at = num "at" }
  | other -> raise (Script_error (Printf.sprintf "unknown fault kind %S" other))

let script_of_json text =
  match parse_json text with
  | exception Script_error msg -> Error msg
  | Jarr items -> (
      match
        List.map
          (function
            | Jobj fields -> directive_of_obj fields
            | Jnull | Jbool _ | Jnum _ | Jstr _ | Jarr _ ->
                raise (Script_error "expected an array of objects"))
          items
      with
      | script -> Ok script
      | exception Script_error msg -> Error msg)
  | Jnull | Jbool _ | Jnum _ | Jstr _ | Jobj _ ->
      Error "expected a top-level array of directives"
