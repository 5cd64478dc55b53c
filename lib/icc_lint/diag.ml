(* Lint findings: location + rule id + message, with deterministic ordering
   and a one-line text rendering.

   Rule ids are the stable, user-facing contract: they appear in
   diagnostics and in [@icc.allow "rule-id: justification"] attributes.
   See DESIGN.md §3.4. *)

type t = { file : string; line : int; col : int; rule : string; msg : string }

(* The determinism & protocol-invariant rules (D1-D4) and the two meta
   rules policing the escape hatch.  Meta rules are not suppressible: an
   allow cannot allow itself. *)
let rule_poly_compare = "d1-poly-compare"
let rule_hashtbl_order = "d2-hashtbl-order"
let rule_banned_fn = "d3-banned-fn"
let rule_float_eq = "d3-float-eq"
let rule_catchall_exn = "d4-catchall-exn"
let rule_allow_bad = "allow-bad"
let rule_allow_unused = "allow-unused"

let suppressible_rules =
  [
    rule_poly_compare;
    rule_hashtbl_order;
    rule_banned_fn;
    rule_float_eq;
    rule_catchall_exn;
  ]

let is_suppressible r = List.exists (String.equal r) suppressible_rules

(* Stable rule universe for [Driver]'s per-rule summary counts. *)
let all_rules = suppressible_rules @ [ rule_allow_bad; rule_allow_unused ]

let of_location (loc : Location.t) ~rule ~msg =
  let p = loc.Location.loc_start in
  {
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    msg;
  }

(* Total, keyed ordering so reports are byte-stable across runs — the
   linter holds itself to the determinism bar it enforces. *)
let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let sort findings = List.sort_uniq compare_finding findings

let to_text f = Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.msg
