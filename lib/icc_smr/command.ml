(* State-machine commands carried in block payloads.

   The atomic-broadcast layer treats command tags as opaque strings; this
   module defines the encoding used by the replicated key-value store. *)

type op =
  | Set of string * string
  | Delete of string
  | Increment of string
  | Noop

let encode = function
  | Set (k, v) -> Printf.sprintf "set|%s|%s" k v
  | Delete k -> Printf.sprintf "del|%s" k
  | Increment k -> Printf.sprintf "inc|%s" k
  | Noop -> "noop"

let decode s =
  match String.split_on_char '|' s with
  | [ "set"; k; v ] -> Some (Set (k, v))
  | [ "del"; k ] -> Some (Delete k)
  | [ "inc"; k ] -> Some (Increment k)
  | [ "noop" ] -> Some Noop
  | _ -> None
