(* BENCHMARK.json, the declaration of the workloads and metrics: names,
   units, directions and (end-to-end only) bounds.  The benchmark reads the
   names, units and bounds to judge set-to-set agreement and to check its
   own output. *)

type metric = { name : string; unit_ : string; bound : float option }

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let parse text =
  let open Icc_sim.Fault in
  let field k = function
    | Jobj kv -> (
        match List.assoc_opt k kv with
        | Some v -> v
        | None -> raise (Script_error ("missing field " ^ k)))
    | _ -> raise (Script_error ("expected an object around " ^ k))
  in
  let str = function Jstr s -> s | _ -> raise (Script_error "expected a string") in
  let arr = function Jarr l -> l | _ -> raise (Script_error "expected an array") in
  let metric j =
    {
      name = str (field "name" j);
      unit_ = str (field "unit" j);
      bound =
        (match j with
        | Jobj kv -> (
            match List.assoc_opt "bound" kv with Some (Jnum b) -> Some b | _ -> None)
        | _ -> None);
    }
  in
  let j = parse_json text in
  {
    workloads = List.map (fun w -> str (field "name" w)) (arr (field "workloads" j));
    end_to_end = List.map metric (arr (field "end_to_end" j));
    per_layer = List.map metric (arr (field "per_layer" j));
  }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      try Ok (parse text) with Icc_sim.Fault.Script_error msg -> Error (path ^ ": " ^ msg))
  | exception Sys_error msg -> Error msg

let find metrics name = List.find_opt (fun m -> String.equal m.name name) metrics
