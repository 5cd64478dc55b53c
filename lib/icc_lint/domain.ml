(* D5-D8 domain-safety analysis (DESIGN.md §3.9).

   Unlike D1-D4, which are per-expression checks, domain safety is a
   whole-program property: a top-level Hashtbl is only a hazard if code
   transitively reachable from a [@icc.domain_entry] seed (the functions
   handed to [Domain.spawn] by the parallel-verify closure) touches it.
   So the pass runs in two stages over the same [.cmt] walk the driver
   already performs:

     [collect]   per compilation unit: an inventory of top-level mutable
                 state (D5 material), a per-binding summary of referenced
                 globals (reference-graph edges) and of hazardous use
                 sites (D6/D7/D8 material), plus the [@icc.domain_safe] /
                 [@icc.allow] annotations that may excuse them;
     [finalize]  once all units are in: resolve names across modules,
                 BFS the reference graph from the entry seeds, and emit
                 findings only for state actually reachable from the
                 parallel closure.  Annotation used/unused bookkeeping
                 happens here, after the verdicts are known.

   The rules:

     D5 [d5-mutable-global]  a top-level unsynchronized mutable binding
        (ref, Hashtbl, array, Buffer, lazy, mutable record, ...) in a
        module wired into the domain closure.
     D6 [d6-domain-escape]   an access to such a binding from a function
        reachable from an entry point.
     D7 [d7-unguarded-lazy]  forcing a shared lazy from reachable code
        (two domains can force concurrently).
     D8 [d8-nonatomic-rmw]   a read-modify-write ([incr], [x := !x + 1])
        of a shared ref in reachable code — lost updates.

   Escape hatches: [@@icc.domain_safe "justification"] on the state's
   declaration (confinement argument: every access is under a lock, or
   the cell is written before any spawn); or a [@icc.allow "d6-...: .."]
   at the use site or on the state's declaration.  State held in
   [Atomic.t], [Domain.DLS] and [Mutex.t] is recognized as synchronized
   by construction.

   Resolution is name-based over dune-normalized paths (Typeinfo), with
   candidate keys tried most-qualified first; unresolved names (locals,
   stdlib, out-of-scan modules) are silently ignored, so the pass is
   conservative in the direction of silence, and lexically-shadowed
   toplevel names may produce a spurious edge but never a wrong rule id. *)

open Typedtree

type allow = {
  al_rule : string;
  al_loc : Location.t;
  mutable al_used : bool;
}

type safety =
  | Unsync of string (* description of the mutable kind *)
  | Lazy_global
  | Synced of string (* "atomic" | "domain-local" | "lock" | "mutex" *)

type global = {
  g_key : string;
  g_loc : Location.t;
  g_safety : safety;
  g_annot : (Location.t * string) option; (* [@@icc.domain_safe just] *)
  mutable g_annot_used : bool;
  g_allows : allow list; (* allows on the declaration itself *)
  mutable g_reached : bool;
}

type use_sort = Read | Force | Rmw of string

type use = {
  u_cands : string list;
  u_loc : Location.t;
  u_sort : use_sort;
  u_allows : allow list; (* lexically active at the site, innermost first *)
}

type node = {
  n_key : string;
  n_entry : bool;
  mutable n_refs : string list list; (* reverse source order *)
  mutable n_uses : use list; (* reverse source order *)
}

type acc = {
  globals : (string, global) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;
  mutable entries : string list; (* node keys, reverse source order *)
  mutable allows_seen : allow list; (* every domain-rule allow, reversed *)
}

let create () =
  {
    globals = Hashtbl.create 64;
    nodes = Hashtbl.create 256;
    entries = [];
    allows_seen = [];
  }

(* --- attributes --------------------------------------------------------- *)

let attr_domain_entry = "icc.domain_entry"
let attr_domain_safe = "icc.domain_safe"

let mem s l = List.exists (String.equal s) l

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* The domain-rule allows among [attrs].  Malformed [@icc.allow] payloads
   are already reported by the D1-D4 walk over the same tree; reporting
   them twice here would only duplicate findings, so parse silently. *)
let domain_allows acc (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (attr : Parsetree.attribute) ->
      if not (String.equal attr.attr_name.txt Allowlist.attribute_name) then
        None
      else
        match Allowlist.string_payload attr with
        | None -> None
        | Some s -> (
            match Allowlist.parse_payload s with
            | Ok rule when Diag.is_domain_rule rule ->
                let a =
                  { al_rule = rule; al_loc = attr.attr_loc; al_used = false }
                in
                acc.allows_seen <- a :: acc.allows_seen;
                Some a
            | Ok _ | Error _ -> None))
    attrs

(* [@@icc.domain_safe "justification"]: mandatory non-empty string. *)
let domain_safe_annot ~report (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (attr : Parsetree.attribute) ->
      if not (String.equal attr.attr_name.txt attr_domain_safe) then acc
      else
        match Allowlist.string_payload attr with
        | Some s when not (String.equal (String.trim s) "") ->
            Some (attr.attr_loc, String.trim s)
        | _ ->
            report
              (Diag.of_location attr.attr_loc ~rule:Diag.rule_allow_bad
                 ~msg:
                   "[@icc.domain_safe] payload must be a string literal \
                    justification");
            acc)
    None attrs

(* --- name candidates ---------------------------------------------------- *)

let drop_last l = match List.rev l with [] -> [] | _ :: tl -> List.rev tl

(* A bare ident inside module path [modpath] may be a binding of that
   module or of any enclosing one; most-qualified candidate first. *)
let rec pident_candidates modpath name =
  match modpath with
  | [] -> []
  | _ ->
      (String.concat "." modpath ^ "." ^ name)
      :: pident_candidates (drop_last modpath) name

(* A dotted path may name a sibling submodule (qualify under each
   enclosing module), an absolute cross-library path, or a suffix of one
   (wrapped-library aliases make [Icc_obs.Registry.inc] and
   [Registry.inc] the same binding). *)
let rec qualified_under modpath full =
  match modpath with
  | [] -> [ full ]
  | _ ->
      (String.concat "." modpath ^ "." ^ full)
      :: qualified_under (drop_last modpath) full

let rec proper_suffixes = function
  | [] | [ _ ] | [ _; _ ] -> []
  | _ :: tl -> String.concat "." tl :: proper_suffixes tl

let skip_roots = [ "Stdlib"; "CamlinternalLazy"; "CamlinternalFormat" ]

let candidates ~modpath (p : Path.t) =
  match Typeinfo.path_components p with
  | [] -> []
  | [ name ] -> pident_candidates modpath name
  | root :: _ as comps ->
      if mem root skip_roots then []
      else qualified_under modpath (String.concat "." comps)
           @ proper_suffixes comps

(* --- binding classification --------------------------------------------- *)

let rec flatten (e : expression) =
  match e.exp_desc with
  | Texp_apply (fn, args) ->
      let head, inner = flatten fn in
      (head, inner @ args)
  | _ -> (e, [])

let ident_path (e : expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let tail2 comps =
  let rec go = function
    | [ a; b ] -> a ^ "." ^ b
    | [ a ] -> a
    | _ :: tl -> go tl
    | [] -> ""
  in
  go comps

let head_tail2 (e : expression) =
  match ident_path (fst (flatten e)) with
  | Some p -> Some (tail2 (Typeinfo.path_components p))
  | None -> None

(* Creator applications, matched on the last two normalized path
   components of the head.  [unsync_creators] build bare shared-mutable
   state; [sync_creators] build cells that are safe to share. *)
let unsync_creators =
  [
    ("Stdlib.ref", "ref"); ("Hashtbl.create", "Hashtbl");
    ("Array.make", "array"); ("Array.init", "array");
    ("Array.make_matrix", "array"); ("Array.of_list", "array");
    ("Array.copy", "array"); ("Buffer.create", "Buffer");
    ("Queue.create", "Queue"); ("Stack.create", "Stack");
    ("Bytes.create", "bytes"); ("Bytes.make", "bytes");
    ("Weak.create", "Weak");
  ]

let sync_creators =
  [
    ("Atomic.make", "atomic"); ("Mutex.create", "mutex");
    ("DLS.new_key", "domain-local");
  ]

(* The *value* of a binding, past any bootstrap lets:
   [let t = let n = size () in Hashtbl.create n] declares a Hashtbl. *)
let rec peel_lets (e : expression) =
  match e.exp_desc with Texp_let (_, _, body) -> peel_lets body | _ -> e

let record_literal_mutable fields =
  Array.exists
    (fun ((ld : Types.label_description), _) ->
      match ld.lbl_mut with Asttypes.Mutable -> true | _ -> false)
    fields

let classify ~table (vb_expr : expression) : safety option =
  let e = peel_lets vb_expr in
  let by_type () =
    match Typeinfo.classify_mutable ~table e.exp_type with
    | Typeinfo.Shared_mutable d -> Some (Unsync d)
    | Typeinfo.Shared_lazy -> Some Lazy_global
    | Typeinfo.Unshared -> None
  in
  match e.exp_desc with
  | Texp_function _ -> None (* reference-graph node, not state *)
  | Texp_lazy _ -> Some Lazy_global
  | Texp_array _ -> Some (Unsync "array")
  | Texp_record { fields; _ } ->
      if record_literal_mutable fields then
        Some (Unsync "record with mutable fields")
      else None
  | Texp_apply _ -> (
      match head_tail2 e with
      | Some t2 -> (
          match List.assoc_opt t2 sync_creators with
          | Some d -> Some (Synced d)
          | None -> (
              match List.assoc_opt t2 unsync_creators with
              | Some d -> Some (Unsync d)
              | None -> by_type ()))
      | None -> by_type ())
  | _ -> by_type ()

let is_function (e : expression) =
  match (peel_lets e).exp_desc with Texp_function _ -> true | _ -> false

(* --- per-binding body walk ---------------------------------------------- *)

let loc_key (loc : Location.t) =
  ( loc.Location.loc_start.Lexing.pos_fname,
    loc.Location.loc_start.Lexing.pos_cnum,
    loc.Location.loc_end.Lexing.pos_cnum )

(* Does [e] contain [!p] for the given ref path (by normalized name)? *)
let contains_deref ~name (e : expression) =
  let found = ref false in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_apply (_, _) -> (
        let head, args = flatten e in
        match (head_tail2 head, args) with
        | Some "Stdlib.!", [ (_, Some a) ] -> (
            match ident_path a with
            | Some p when String.equal (Typeinfo.norm_path p) name ->
                found := true
            | _ -> ())
        | _ -> ())
    | _ -> ());
    if not !found then Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter e;
  !found

let exempt_derefs ~name ~exempt (e : expression) =
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_apply (_, _) -> (
        let head, args = flatten e in
        match (head_tail2 head, args) with
        | Some "Stdlib.!", [ (_, Some a) ] -> (
            match ident_path a with
            | Some p when String.equal (Typeinfo.norm_path p) name ->
                Hashtbl.replace exempt (loc_key a.exp_loc) ()
            | _ -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter e

(* Walk one top-level binding body: record referenced globals (edges),
   and — inside function/lazy bodies only, i.e. code that runs at call
   time rather than module-initialization time — hazardous use sites. *)
let walk_binding acc ~modpath ~toplevel ~node ~vb_allows (body : expression) =
  let depth = ref 0 in
  let stack = ref [ vb_allows ] in
  let exempt : (string * int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let cands_of p =
    match Typeinfo.path_components p with
    | [ name ] ->
        if Hashtbl.mem toplevel name then pident_candidates modpath name else []
    | _ -> candidates ~modpath p
  in
  let record_use cs loc sort =
    node.n_uses <-
      { u_cands = cs; u_loc = loc; u_sort = sort;
        u_allows = List.concat !stack }
      :: node.n_uses
  in
  let arg_ident_cands a =
    match ident_path a with
    | Some p -> (
        match cands_of p with [] -> None | cs -> Some (p, cs))
    | None -> None
  in
  let expr sub (e : expression) =
    let allows = domain_allows acc e.exp_attributes in
    let pushed = (match allows with [] -> false | _ -> true) in
    if pushed then stack := allows :: !stack;
    (* Parent-first shape checks, so compound forms can claim (exempt)
       their constituent idents before the ident case sees them. *)
    (match e.exp_desc with
    | Texp_apply (_, _) -> (
        let head, args = flatten e in
        match (head_tail2 head, args) with
        | Some ("Stdlib.incr" as op), [ (_, Some a) ]
        | Some ("Stdlib.decr" as op), [ (_, Some a) ] -> (
            match arg_ident_cands a with
            | Some (_, cs) when !depth > 0 ->
                record_use cs e.exp_loc
                  (Rmw (Typeinfo.norm_component (tail2 [ op ])));
                Hashtbl.replace exempt (loc_key a.exp_loc) ()
            | _ -> ())
        | Some "Stdlib.:=", [ (_, Some lhs); (_, Some rhs) ] -> (
            match arg_ident_cands lhs with
            | Some (p, cs)
              when !depth > 0
                   && contains_deref ~name:(Typeinfo.norm_path p) rhs ->
                record_use cs e.exp_loc (Rmw ":= over !");
                Hashtbl.replace exempt (loc_key lhs.exp_loc) ();
                exempt_derefs ~name:(Typeinfo.norm_path p) ~exempt rhs
            | _ -> ())
        | Some ("Lazy.force" | "Lazy.force_val"), [ (_, Some a) ] -> (
            match arg_ident_cands a with
            | Some (_, cs) when !depth > 0 ->
                record_use cs a.exp_loc Force;
                Hashtbl.replace exempt (loc_key a.exp_loc) ()
            | _ -> ())
        | _ -> ())
    | Texp_ident (p, _, _) ->
        if not (Hashtbl.mem exempt (loc_key e.exp_loc)) then begin
          match cands_of p with
          | [] -> ()
          | cs ->
              node.n_refs <- cs :: node.n_refs;
              if !depth > 0 then record_use cs e.exp_loc Read
        end
    | _ -> ());
    (match e.exp_desc with
    | Texp_function _ | Texp_lazy _ ->
        incr depth;
        Tast_iterator.default_iterator.expr sub e;
        decr depth
    | _ -> Tast_iterator.default_iterator.expr sub e);
    if pushed then stack := List.tl !stack
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter body

(* --- per-unit collection ------------------------------------------------ *)

(* "Stdlib.incr" -> "incr" for the D8 message. *)
let short_op s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let collect acc ~table ~modname ~report (st : structure) =
  let modroot = Typeinfo.norm_component modname in
  (* Stage A: every structure-level name in this unit, so bare idents can
     be told apart from locals/parameters during the body walks. *)
  let toplevel = Hashtbl.create 32 in
  let rec names (items : structure_item list) =
    List.iter
      (fun (it : structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun id -> Hashtbl.replace toplevel (Ident.name id) ())
                  (pat_bound_idents vb.vb_pat))
              vbs
        | Tstr_module mb -> names_mod mb.mb_expr
        | Tstr_recmodule mbs ->
            List.iter (fun mb -> names_mod mb.mb_expr) mbs
        | _ -> ())
      items
  and names_mod (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> names s.str_items
    | Tmod_constraint (me, _, _, _) -> names_mod me
    | _ -> ()
  in
  names st.str_items;
  (* Stage B: classify each binding and walk its body. *)
  let binding modpath (vb : value_binding) =
    match pat_bound_idents vb.vb_pat with
    | [ id ] ->
        let key = String.concat "." (modpath @ [ Ident.name id ]) in
        let entry_attr = has_attr attr_domain_entry vb.vb_attributes in
        let annot = domain_safe_annot ~report vb.vb_attributes in
        let vb_allows = domain_allows acc vb.vb_attributes in
        let fn = is_function vb.vb_expr in
        if entry_attr && not fn then
          report
            (Diag.of_location vb.vb_pat.pat_loc ~rule:Diag.rule_allow_bad
               ~msg:
                 "[@icc.domain_entry] must mark a function (the seed of \
                  the parallel closure)");
        let entry = entry_attr && fn in
        (match classify ~table vb.vb_expr with
        | Some safety ->
            Hashtbl.replace acc.globals key
              {
                g_key = key;
                g_loc = vb.vb_pat.pat_loc;
                g_safety = safety;
                g_annot = annot;
                g_annot_used = false;
                g_allows = vb_allows;
                g_reached = false;
              }
        | None -> (
            (* domain_safe on a binding with no shared mutable state is
               stale documentation — the same policy as unused allows. *)
            match annot with
            | Some (aloc, _) ->
                report
                  (Diag.of_location aloc ~rule:Diag.rule_allow_unused
                     ~msg:
                       "[@icc.domain_safe] annotates a binding with no \
                        shared mutable state — remove it")
            | None -> ()));
        let node =
          { n_key = key; n_entry = entry; n_refs = []; n_uses = [] }
        in
        Hashtbl.replace acc.nodes key node;
        if entry then acc.entries <- key :: acc.entries;
        walk_binding acc ~modpath ~toplevel ~node ~vb_allows vb.vb_expr
    | _ -> () (* destructuring toplevel bindings: out of scope *)
  in
  let rec items modpath (sitems : structure_item list) =
    List.iter
      (fun (it : structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) -> List.iter (binding modpath) vbs
        | Tstr_module mb -> sub modpath mb
        | Tstr_recmodule mbs -> List.iter (sub modpath) mbs
        | _ -> ())
      sitems
  and sub modpath (mb : module_binding) =
    match mb.mb_id with
    | Some id -> sub_expr (modpath @ [ Ident.name id ]) mb.mb_expr
    | None -> ()
  and sub_expr modpath (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> items modpath s.str_items
    | Tmod_constraint (me, _, _, _) -> sub_expr modpath me
    | _ -> ()
  in
  items [ modroot ] st.str_items

(* --- whole-program resolution ------------------------------------------- *)

let first_match find cands =
  let rec go = function
    | [] -> None
    | c :: rest -> ( match find c with Some v -> Some v | None -> go rest)
  in
  go cands

let top_module key =
  match String.index_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> key

let safety_desc = function
  | Unsync d -> d
  | Lazy_global -> "lazy"
  | Synced d -> d

let finalize acc ~report =
  let find_node cs = first_match (Hashtbl.find_opt acc.nodes) cs in
  let find_global cs = first_match (Hashtbl.find_opt acc.globals) cs in
  (* Reachability: BFS over resolved references from the entry seeds. *)
  let visited = Hashtbl.create 128 in
  let queue = Queue.create () in
  List.iter
    (fun k ->
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        Queue.add k queue
      end)
    (List.rev acc.entries);
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    match Hashtbl.find_opt acc.nodes k with
    | None -> ()
    | Some n ->
        List.iter
          (fun cs ->
            match find_node cs with
            | Some n' when not (Hashtbl.mem visited n'.n_key) ->
                Hashtbl.replace visited n'.n_key ();
                Queue.add n'.n_key queue
            | _ -> ())
          (List.rev n.n_refs)
  done;
  let permits allows rule =
    match List.find_opt (fun a -> String.equal a.al_rule rule) allows with
    | Some a ->
        a.al_used <- true;
        true
    | None -> false
  in
  (* Use sites in reachable code, visited in key order so allow-usage
     marking (and hence the unused-allow report) is deterministic. *)
  let visited_keys =
    List.sort String.compare (Hashtbl.fold (fun k () l -> k :: l) visited [])
  in
  List.iter
    (fun k ->
      match Hashtbl.find_opt acc.nodes k with
      | None -> ()
      | Some n ->
          List.iter
            (fun u ->
              match find_global u.u_cands with
              | None -> ()
              | Some g -> (
                  g.g_reached <- true;
                  match g.g_safety with
                  | Synced _ ->
                      if Option.is_some g.g_annot then g.g_annot_used <- true
                  | Unsync desc -> (
                      let rule, msg =
                        match u.u_sort with
                        | Rmw op ->
                            ( Diag.rule_nonatomic_rmw,
                              Printf.sprintf
                                "non-atomic read-modify-write (%s) of shared \
                                 %s %s — concurrent domains lose updates; \
                                 use Atomic.t (fetch_and_add) or a lock"
                                (short_op op) desc g.g_key )
                        | Force | Read ->
                            ( Diag.rule_domain_escape,
                              Printf.sprintf
                                "%s %s is reachable from the \
                                 [@icc.domain_entry] closure without \
                                 synchronization — use Atomic.t / \
                                 Domain.DLS / Mutex, or justify \
                                 confinement with [@icc.domain_safe \"...\"]"
                                desc g.g_key )
                      in
                      match g.g_annot with
                      | Some _ -> g.g_annot_used <- true
                      | None ->
                          if
                            not
                              (permits u.u_allows rule
                              || permits g.g_allows rule)
                          then report (Diag.of_location u.u_loc ~rule ~msg))
                  | Lazy_global -> (
                      let rule = Diag.rule_unguarded_lazy in
                      let msg =
                        Printf.sprintf
                          "forcing shared lazy %s from the parallel closure \
                           can race (two domains forcing concurrently raise \
                           CamlinternalLazy.Undefined) — force it before \
                           Domain.spawn or guard it with a Mutex"
                          g.g_key
                      in
                      match g.g_annot with
                      | Some _ -> g.g_annot_used <- true
                      | None ->
                          if
                            not
                              (permits u.u_allows rule
                              || permits g.g_allows rule)
                          then report (Diag.of_location u.u_loc ~rule ~msg))))
            (List.rev n.n_uses))
    visited_keys;
  (* D5: declaration-site findings.  A module is domain-sensitive when it
     hosts an entry point; individual globals also become sensitive when
     the reachability pass saw an access. *)
  let entry_roots =
    List.sort_uniq String.compare (List.map top_module acc.entries)
  in
  let global_keys =
    List.sort String.compare
      (Hashtbl.fold (fun k _ l -> k :: l) acc.globals [])
  in
  List.iter
    (fun k ->
      let g = Hashtbl.find acc.globals k in
      match g.g_safety with
      | Synced _ -> ()
      | Unsync _ | Lazy_global ->
          if mem (top_module g.g_key) entry_roots || g.g_reached then begin
            match g.g_annot with
            | Some _ -> g.g_annot_used <- true
            | None ->
                if not (permits g.g_allows Diag.rule_mutable_global) then
                  report
                    (Diag.of_location g.g_loc ~rule:Diag.rule_mutable_global
                       ~msg:
                         (Printf.sprintf
                            "top-level mutable state (%s) in a module wired \
                             into the [@icc.domain_entry] closure — use \
                             Atomic.t / Domain.DLS / Mutex, or \
                             document confinement with [@icc.domain_safe \
                             \"...\"]"
                            (safety_desc g.g_safety)))
          end)
    global_keys;
  (* Unused escape hatches, in source order. *)
  List.iter
    (fun a ->
      if not a.al_used then
        report
          (Diag.of_location a.al_loc ~rule:Diag.rule_allow_unused
             ~msg:
               (Printf.sprintf "[@icc.allow %S] suppressed nothing — remove it"
                  a.al_rule)))
    (List.rev acc.allows_seen)

(* --- inventory ---------------------------------------------------------- *)

type inv = {
  i_name : string;
  i_kind : string;
  i_sync : string;
  i_file : string;
  i_line : int;
}

let inventory acc =
  let keys =
    List.sort String.compare
      (Hashtbl.fold (fun k _ l -> k :: l) acc.globals [])
  in
  List.map
    (fun k ->
      let g = Hashtbl.find acc.globals k in
      let sync =
        match (g.g_safety, g.g_annot) with
        | Synced d, _ -> d
        | (Unsync _ | Lazy_global), Some (_, just) -> "domain_safe: " ^ just
        | (Unsync _ | Lazy_global), None -> "unsynchronized"
      in
      let p = g.g_loc.Location.loc_start in
      {
        i_name = g.g_key;
        i_kind = safety_desc g.g_safety;
        i_sync = sync;
        i_file = p.Lexing.pos_fname;
        i_line = p.Lexing.pos_lnum;
      })
    keys
