(* Process-global counter registry (see registry.mli for the contract).

   A counter is a plain mutable record: a bump on the hot instrumentation
   paths (crypto verifies, pool admissions) is one field write.  The
   runtime is single-domain (DESIGN.md §3.9), so nothing here
   synchronises.

   Registration is idempotent find-or-insert on the global name table.
   All ordering-sensitive output (listing, exposition) is sorted by name,
   so nothing about Hashtbl bucket order ever escapes. *)

type counter = { mutable c_value : int }

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.add registry name c;
      c

let inc c = c.c_value <- c.c_value + 1
let add c k = c.c_value <- c.c_value + k
let value c = c.c_value

let all_sorted () =
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () = List.map (fun (name, c) -> (name, c.c_value)) (all_sorted ())
let reset () = List.iter (fun (_, c) -> c.c_value <- 0) (all_sorted ())

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let to_prometheus () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let pname = sanitize name in
      Printf.bprintf b "# TYPE %s counter\n%s %d\n" pname pname v)
    (counters ());
  Buffer.contents b
