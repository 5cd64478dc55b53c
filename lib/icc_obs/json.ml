(* The one JSON codec (contract in json.mli).

   The reader is a recursive descent over the string with one position
   cursor; errors unwind with the offset they stopped at.  A string
   without escapes (every string a trace carries) is cut out with one
   [String.sub]; only an escaped one goes through a buffer, which keeps
   [icc analyze] over a multi-megabyte trace cheap. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* --- writer ------------------------------------------------------------- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let add_string b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Printf.bprintf b "%.6f" f
      else Buffer.add_string b "null"
  | String s -> add_string b s
  | Array items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
  | Object fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* --- reader ------------------------------------------------------------- *)

exception Fail of int * string

(* Deeper nesting than any script or ledger uses is rejected rather than
   left to exhaust the stack. *)
let max_depth = 512

let parse text =
  let len = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let skip_ws () =
    while
      !pos < len
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < len && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub text !pos n = word then begin
      pos := !pos + n;
      v
    end
    else fail "expected a value"
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    match int_of_string_opt ("0x" ^ String.sub text !pos 4) with
    | Some c when c <= 0xff ->
        pos := !pos + 4;
        Char.chr c
    | Some _ -> fail "\\u escape above 00ff"
    | None -> fail "bad \\u escape"
  in
  (* The slow path, from the first backslash on. *)
  let escaped_string start =
    let b = Buffer.create (2 * (!pos - start) + 16) in
    Buffer.add_substring b text start (!pos - start);
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match text.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= len then fail "unterminated string";
          let c = text.[!pos] in
          incr pos;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' -> Buffer.add_char b (hex4 ())
          | _ ->
              decr pos;
              fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < len && text.[!pos] <> '"' && text.[!pos] <> '\\' do
      incr pos
    done;
    if !pos >= len then fail "unterminated string"
    else if text.[!pos] = '"' then begin
      incr pos;
      String.sub text start (!pos - start - 1)
    end
    else escaped_string start
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      &&
      match text.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a value";
    let s = String.sub text start (!pos - start) in
    let fractional =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s
    in
    match if fractional then None else int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None ->
            pos := start;
            fail "bad number")
  in
  (* [items close elem] reads [elem (, elem)* close] after the opener. *)
  let items close elem =
    skip_ws ();
    if !pos < len && text.[!pos] = close then begin
      incr pos;
      []
    end
    else
      let rec more acc =
        let acc = elem () :: acc in
        skip_ws ();
        if !pos < len && text.[!pos] = ',' then begin
          incr pos;
          more acc
        end
        else if !pos < len && text.[!pos] = close then begin
          incr pos;
          List.rev acc
        end
        else fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      more []
  in
  let rec value depth =
    skip_ws ();
    if depth > max_depth then fail "nesting too deep";
    if !pos >= len then fail "expected a value";
    match text.[!pos] with
    | '"' -> String (parse_string ())
    | '[' ->
        incr pos;
        Array (items ']' (fun () -> value (depth + 1)))
    | '{' ->
        incr pos;
        Object
          (items '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, value (depth + 1))))
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

(* --- access ------------------------------------------------------------- *)

let member k = function
  | Object fields -> List.assoc_opt k fields
  | Null | Bool _ | Int _ | Float _ | String _ | Array _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | String _ | Array _ | Object _ -> None
