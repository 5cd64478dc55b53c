(* Orchestration: find [.cmt]/[.cmti] artifacts, build the cross-module
   type table (pass 1), run the rules over every implementation (pass 2),
   and render a deterministic report.

   The driver is filesystem-only — it never invokes the compiler — so it
   can run as a plain dune rule over whatever the build just produced. *)

type config = {
  paths : string list; (* linted (and used for type info) *)
  dep_paths : string list; (* type info only, e.g. --deps lib *)
  protocol_modules : string list;
}

(* Modules owning protocol/message/block/trace state: polymorphic
   compare/equality at their (non-atomic) types is a D1 finding. *)
let default_protocol_modules =
  [
    (* icc_core *)
    "Types"; "Block"; "Message"; "Chain"; "Beacon"; "Pool"; "Codec"; "Config";
    (* icc_sim *)
    "Trace";
    (* icc_crypto: every one of these exports a dedicated equal/compare *)
    "Sha256"; "Merkle"; "Multisig"; "Schnorr"; "Threshold_vuf"; "Dkg"; "Dleq";
    "Shamir"; "Group"; "Fp";
  ]

let default ?(dep_paths = []) paths =
  { paths; dep_paths; protocol_modules = default_protocol_modules }

(* --- artifact discovery ------------------------------------------------- *)

let has_suffix s suf =
  let ls = String.length s and lu = String.length suf in
  ls >= lu && String.equal (String.sub s (ls - lu) lu) suf

let rec scan_path acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> scan_path acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if has_suffix path ".cmt" || has_suffix path ".cmti" then path :: acc
  else acc

let find_artifacts paths =
  let all =
    List.fold_left
      (fun acc p ->
        if Sys.file_exists p then scan_path acc p
        else begin
          Printf.eprintf "icc-lint: no such path: %s\n" p;
          acc
        end)
      [] paths
  in
  List.sort String.compare all

(* --- the passes --------------------------------------------------------- *)

type result = {
  findings : Diag.t list;
  errors : string list; (* unreadable artifacts, in path order *)
  modules : int; (* implementations linted *)
}

let read_cmt errors path =
  match Cmt_format.read_cmt path with
  | cmt -> Some cmt
  | exception e ->
      errors := Printf.sprintf "%s: %s" path (Printexc.to_string e) :: !errors;
      None

let collect config =
  let errors = ref [] in
  let lint_files = find_artifacts config.paths in
  let dep_files = find_artifacts config.dep_paths in
  let table = Typeinfo.create () in
  let read = List.filter_map (read_cmt errors) in
  let lint_cmts = read lint_files in
  let dep_cmts = read dep_files in
  List.iter (Typeinfo.add_cmt table) dep_cmts;
  List.iter (Typeinfo.add_cmt table) lint_cmts;
  let protocol m = List.exists (String.equal m) config.protocol_modules in
  let findings = ref [] in
  let report d = findings := d :: !findings in
  let modules = ref 0 in
  List.iter
    (fun (cmt : Cmt_format.cmt_infos) ->
      match cmt.cmt_annots with
      | Implementation st ->
          incr modules;
          Rules.lint_structure ~table ~protocol ~report st
      | _ -> ())
    lint_cmts;
  {
    findings = Diag.sort !findings;
    errors = List.rev !errors;
    modules = !modules;
  }

(* --- reporting ---------------------------------------------------------- *)

let count_rule findings rule =
  List.length (List.filter (fun (d : Diag.t) -> String.equal d.rule rule) findings)

(* Findings go to stdout (the machine-readable stream); the summary and
   any artifact errors go to stderr.  Exit status: 0 clean, 1 findings,
   2 when artifacts could not be read (the lint was incomplete). *)
let run config =
  let r = collect config in
  List.iter (fun d -> print_endline (Diag.to_text d)) r.findings;
  List.iter (fun e -> Printf.eprintf "icc-lint: error: %s\n" e) r.errors;
  let n = List.length r.findings in
  let by_rule =
    List.filter_map
      (fun rule ->
        match count_rule r.findings rule with
        | 0 -> None
        | c -> Some (Printf.sprintf "%s %d" rule c))
      Diag.all_rules
  in
  Printf.eprintf "icc-lint: %d finding%s in %d module%s%s\n" n
    (if n = 1 then "" else "s")
    r.modules
    (if r.modules = 1 then "" else "s")
    (match by_rule with
    | [] -> ""
    | l -> " (" ^ String.concat ", " l ^ ")");
  if r.errors <> [] then 2 else if n > 0 then 1 else 0

(* Argv parsing for [bin/lint]: [--deps DIR]... [PATH]... *)
let config_of_args args =
  let deps = ref [] and paths = ref [] in
  let rec go = function
    | [] -> Ok ()
    | "--deps" :: dir :: rest ->
        deps := dir :: !deps;
        go rest
    | [ "--deps" ] -> Error "--deps requires a directory argument"
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Error (Printf.sprintf "unknown option %s" arg)
    | p :: rest ->
        paths := p :: !paths;
        go rest
  in
  match go args with
  | Error e -> Error e
  | Ok () ->
      let paths =
        match List.rev !paths with
        | [] ->
            (* default: the current build's lib tree, from either the
               source root or inside _build/default *)
            if Sys.file_exists "_build/default/lib" then
              [ "_build/default/lib" ]
            else [ "lib" ]
        | ps -> ps
      in
      Ok (default ~dep_paths:(List.rev !deps) paths)
