(* Minimal JSON: a value type, the one writer every emitter goes
   through, a strict recursive-descent parser and a field lookup. No
   dependency — the image has no JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* Writer *)

(* The shortest %g form that reads back as [f]; %.17g always does, and
   trace nesting checks compare exact ts/dur values. JSON has no
   inf/nan. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let is_scalar = function Arr _ | Obj _ -> false | _ -> true

let render v =
  let buf = Buffer.create 1024 in
  let rec value pad = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f -> Buffer.add_string buf (number f)
    | Str s -> Buffer.add_string buf (quote s)
    | Arr l -> container pad '[' ']' (List.map (fun v -> ("", v)) l)
    | Obj l ->
        container pad '{' '}' (List.map (fun (k, v) -> (quote k ^ ": ", v)) l)
  (* Each member is the key text to print before its value. *)
  and container pad op cl members =
    let flat = List.for_all (fun (_, v) -> is_scalar v) members in
    let inner = pad ^ "  " in
    Buffer.add_char buf op;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (if flat then " " else "\n" ^ inner);
        Buffer.add_string buf key;
        value inner v)
      members;
    if members <> [] then
      Buffer.add_string buf (if flat then " " else "\n" ^ pad);
    Buffer.add_char buf cl
  in
  value "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Parser *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

(* Exactly four hex digits; [int_of_string] alone would also take '_'. *)
let hex4 st =
  if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
  let hex = String.sub st.src st.pos 4 in
  if
    not
      (String.for_all
         (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
         hex)
  then error st "bad \\u escape";
  st.pos <- st.pos + 4;
  int_of_string ("0x" ^ hex)

(* A \u escape as a code point: a high surrogate must be followed by an
   escaped low one, and the pair combines into one supplementary code
   point. *)
let unicode_escape st =
  let code = hex4 st in
  if code >= 0xD800 && code <= 0xDBFF then begin
    if
      not
        (st.pos + 2 <= String.length st.src
        && st.src.[st.pos] = '\\'
        && st.src.[st.pos + 1] = 'u')
    then error st "lone high surrogate";
    st.pos <- st.pos + 2;
    let low = hex4 st in
    if low < 0xDC00 || low > 0xDFFF then error st "lone high surrogate";
    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
  end
  else if code >= 0xDC00 && code <= 0xDFFF then error st "lone low surrogate"
  else code

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if st.pos >= String.length st.src then error st "unterminated escape";
        let e = st.src.[st.pos] in
        st.pos <- st.pos + 1;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (unicode_escape st))
        | _ -> error st "bad escape");
        go ())
    | c when Char.code c < 0x20 -> error st "unescaped control character"
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?. The
   slice that passes is always valid OCaml float syntax. *)
let parse_number st =
  let start = st.pos in
  let accept c =
    let next = st.pos < String.length st.src && st.src.[st.pos] = c in
    if next then st.pos <- st.pos + 1;
    next
  in
  let digits () =
    let d0 = st.pos in
    while
      st.pos < String.length st.src
      && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done;
    if st.pos = d0 then error st "expected digit"
  in
  ignore (accept '-');
  if not (accept '0') then digits ();
  if accept '.' then digits ();
  if accept 'e' || accept 'E' then begin
    ignore (accept '+' || accept '-');
    digits ()
  end;
  float_of_string (String.sub st.src start (st.pos - start))

(* The comma-separated [item]s of a container whose opening bracket
   has been consumed, up to and including the closing [close]. *)
let items st close item =
  skip_ws st;
  if peek st = Some close then begin
    st.pos <- st.pos + 1;
    []
  end
  else begin
    let rec go acc =
      let x = item st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          st.pos <- st.pos + 1;
          go (x :: acc)
      | Some c when c = close ->
          st.pos <- st.pos + 1;
          List.rev (x :: acc)
      | _ -> error st (Printf.sprintf "expected ',' or %C" close)
    in
    go []
  end

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      expect st '{';
      Obj (items st '}' parse_member)
  | Some '[' ->
      expect st '[';
      Arr (items st ']' parse_value)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

and parse_member st =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  (k, parse_value st)

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length src then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None
