(* Span-based self-profiler (contract in profile.mli).

   Hot-path discipline: with the toggle off, [span] costs one load and a
   branch.  With it on, entry reads the clock and pushes a reusable stack
   frame (the frame array is grown geometrically and never shrunk, so
   steady-state entry allocates only the folded-path string); exit reads
   the clock and folds the frame into the aggregation tables.

   The span stack, the attribution context and the aggregation tables
   are plain module-level state: the runtime is single-domain
   (DESIGN.md §3.9).

   All query output is sorted with keyed comparators — Hashtbl iteration
   order never escapes. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

let now () =
  (Unix.gettimeofday ()
  [@icc.allow
    "d3-banned-fn: the profiler's whole purpose is reading host wall-clock; \
     it is default-off, write-only, and feeds nothing back into the \
     simulation"])

(* --- span stack ---------------------------------------------------------- *)

type frame = {
  mutable fr_name : string;
  mutable fr_path : string; (* ";"-joined stack including this frame *)
  mutable fr_start : float;
  mutable fr_child : float; (* accumulated child wall-clock *)
}

let fresh_frame () = { fr_name = ""; fr_path = ""; fr_start = 0.; fr_child = 0. }

(* The span stack plus the round/party attribution context of whatever
   is executing. *)
type pstate = {
  mutable frames : frame array;
  mutable depth : int;
  mutable round : int;
  mutable party : int;
}

let pstate =
  { frames = Array.init 64 (fun _ -> fresh_frame ()); depth = 0; round = 0; party = 0 }

let grow () =
  let old = pstate.frames in
  let n = Array.length old in
  pstate.frames <-
    Array.init (2 * n) (fun i -> if i < n then old.(i) else fresh_frame ())

let set_round r = pstate.round <- r
let set_party p = pstate.party <- p

(* --- aggregation -------------------------------------------------------- *)

type agg = { mutable a_count : int; mutable a_total : float; mutable a_self : float }
type cell = { mutable cl_count : int; mutable cl_self : float }

(* The four tables below are written only inside [record]/[reset]. *)

let agg_tbl : (string, agg) Hashtbl.t = Hashtbl.create 64

let folded_tbl : (string, cell) Hashtbl.t = Hashtbl.create 256

(* context -> (span name -> self seconds); two-level so the leaf tables
   stay small and keyed by the same interned name strings. *)
let round_tbl : (int, (string, float ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64

let party_tbl : (int, (string, float ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64

let reset () =
  Hashtbl.reset agg_tbl;
  Hashtbl.reset folded_tbl;
  Hashtbl.reset round_tbl;
  Hashtbl.reset party_tbl;
  pstate.round <- 0;
  pstate.party <- 0;
  pstate.depth <- 0

let charge tbl key name self =
  let leaf =
    match Hashtbl.find_opt tbl key with
    | Some leaf -> leaf
    | None ->
        let leaf = Hashtbl.create 16 in
        Hashtbl.add tbl key leaf;
        leaf
  in
  match Hashtbl.find_opt leaf name with
  | Some r -> r := !r +. self
  | None -> Hashtbl.add leaf name (ref self)

let record fr total self =
  (match Hashtbl.find_opt agg_tbl fr.fr_name with
  | Some a ->
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total +. total;
      a.a_self <- a.a_self +. self
  | None ->
      Hashtbl.add agg_tbl fr.fr_name
        { a_count = 1; a_total = total; a_self = self });
  (match Hashtbl.find_opt folded_tbl fr.fr_path with
  | Some c ->
      c.cl_count <- c.cl_count + 1;
      c.cl_self <- c.cl_self +. self
  | None ->
      Hashtbl.add folded_tbl fr.fr_path { cl_count = 1; cl_self = self });
  charge round_tbl pstate.round fr.fr_name self;
  charge party_tbl pstate.party fr.fr_name self

let enter name =
  let d = pstate.depth in
  if d >= Array.length pstate.frames then grow ();
  let fr = pstate.frames.(d) in
  fr.fr_name <- name;
  fr.fr_path <-
    (if d = 0 then name else pstate.frames.(d - 1).fr_path ^ ";" ^ name);
  fr.fr_start <- now ();
  fr.fr_child <- 0.;
  pstate.depth <- d + 1

let leave () =
  let t = now () in
  let d = pstate.depth - 1 in
  pstate.depth <- d;
  let fr = pstate.frames.(d) in
  let total = t -. fr.fr_start in
  let self = Float.max 0. (total -. fr.fr_child) in
  if d > 0 then begin
    let parent = pstate.frames.(d - 1) in
    parent.fr_child <- parent.fr_child +. total
  end;
  record fr total self

let span name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

(* --- queries ------------------------------------------------------------ *)

type stat = {
  sp_name : string;
  sp_count : int;
  sp_total_s : float;
  sp_self_s : float;
}

let stats () =
  Hashtbl.fold
    (fun name a acc ->
      {
        sp_name = name;
        sp_count = a.a_count;
        sp_total_s = a.a_total;
        sp_self_s = a.a_self;
      }
      :: acc)
    agg_tbl []
  |> List.sort (fun a b -> String.compare a.sp_name b.sp_name)

let folded () =
  Hashtbl.fold
    (fun path c acc -> (path, c.cl_count, c.cl_self) :: acc)
    folded_tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let us s = int_of_float ((s *. 1e6) +. 0.5)

let folded_lines () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (path, _count, self) ->
      Buffer.add_string b path;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int (us self));
      Buffer.add_char b '\n')
    (folded ());
  Buffer.contents b

let contexts tbl =
  Hashtbl.fold
    (fun key leaf acc ->
      let cells =
        Hashtbl.fold (fun name r acc -> (name, !r) :: acc) leaf []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      (key, cells) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let by_round () = contexts round_tbl
let by_party () = contexts party_tbl

(* --- rendering ---------------------------------------------------------- *)

type report = {
  spans : stat list;
  counters : (string * int) list;
  rounds : (int * (string * float) list) list;
  parties : (int * (string * float) list) list;
}

let report () =
  {
    spans = stats ();
    counters = Registry.counters ();
    rounds = by_round ();
    parties = by_party ();
  }

let by_self spans =
  List.sort
    (fun a b ->
      match Float.compare b.sp_self_s a.sp_self_s with
      | 0 -> String.compare a.sp_name b.sp_name
      | c -> c)
    spans

let nonzero counters = List.filter (fun (_, v) -> v > 0) counters
let self_sum cells = List.fold_left (fun a (_, s) -> a +. s) 0. cells

let top_cell cells =
  match
    List.sort
      (fun (n1, s1) (n2, s2) ->
        match Float.compare s2 s1 with 0 -> String.compare n1 n2 | c -> c)
      cells
  with
  | (name, _) :: _ -> name
  | [] -> "-"

let render ~top r =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let spans = by_self r.spans in
  let total_self = List.fold_left (fun a st -> a +. st.sp_self_s) 0. spans in
  let row name count total self =
    p "  %-28s %10d %12d %12d %5.1f%%\n" name count (us total) (us self)
      (if total_self = 0. then 0. else 100. *. self /. total_self)
  in
  p "profile (host wall-clock, self-time descending):\n";
  p "  %-28s %10s %12s %12s %6s\n" "span" "count" "total-us" "self-us" "share";
  let shown, rest =
    if top <= 0 then (spans, [])
    else
      ( List.filteri (fun i _ -> i < top) spans,
        List.filteri (fun i _ -> i >= top) spans )
  in
  List.iter (fun st -> row st.sp_name st.sp_count st.sp_total_s st.sp_self_s) shown;
  if rest <> [] then
    row
      (Printf.sprintf "(other x%d)" (List.length rest))
      (List.fold_left (fun a st -> a + st.sp_count) 0 rest)
      (List.fold_left (fun a st -> a +. st.sp_total_s) 0. rest)
      (List.fold_left (fun a st -> a +. st.sp_self_s) 0. rest);
  (match nonzero r.counters with
  | [] -> ()
  | counters ->
      p "\ncounters:\n";
      List.iter (fun (name, v) -> p "  %-28s %12d\n" name v) counters);
  (* Per-round self-µs heatmap: one bar per round context, scaled to the
     busiest round, labelled with the round's top span. *)
  if r.rounds <> [] then begin
    let peak =
      List.fold_left (fun a (_, cells) -> Float.max a (self_sum cells)) 0. r.rounds
    in
    p "\nper-round self-us (0 = outside any round):\n";
    List.iter
      (fun (round, cells) ->
        let t = self_sum cells in
        let bar = if peak = 0. then 0 else int_of_float ((40. *. t /. peak) +. 0.5) in
        p "  %5d %10d  %-40s %s\n" round (us t) (String.make bar '#')
          (top_cell cells))
      r.rounds
  end;
  if r.parties <> [] then begin
    p "\nper-party self-us (0 = outside any party):\n";
    List.iter
      (fun (party, cells) -> p "  %5d %10d\n" party (us (self_sum cells)))
      r.parties
  end;
  Buffer.contents b

let to_json r =
  let obj fields = Json.Object fields and str s = Json.String s in
  let contexts key rows =
    Json.Array
      (List.map
         (fun (k, cells) ->
           obj
             [
               (key, Json.Int k);
               ( "spans",
                 Json.Array
                   (List.map
                      (fun (name, self) ->
                        obj [ ("name", str name); ("self_us", Json.Int (us self)) ])
                      cells) );
             ])
         rows)
  in
  [
    ( "spans",
      Json.Array
        (List.map
           (fun st ->
             obj
               [
                 ("name", str st.sp_name);
                 ("count", Json.Int st.sp_count);
                 ("total_us", Json.Int (us st.sp_total_s));
                 ("self_us", Json.Int (us st.sp_self_s));
               ])
           (by_self r.spans)) );
    ( "counters",
      Json.Array
        (List.map
           (fun (name, v) -> obj [ ("name", str name); ("value", Json.Int v) ])
           (nonzero r.counters)) );
    ("by_round", contexts "round" r.rounds);
    ("by_party", contexts "party" r.parties);
  ]
