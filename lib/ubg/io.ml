module Point = Geometry.Point
module Wgraph = Graph.Wgraph
module Csr = Graph.Csr

(* On-disk format versions. Writers always emit the current version;
   readers accept every version ever shipped, including the pre-v1
   unversioned headers ("ubg-instance" with no suffix). *)
let instance_version = 2
let topology_version = 1
let trace_version = 1
let checkpoint_version = 1

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* The writers below build a file in a buffer that goes to the channel
   each time a line ends past 64 KB, and once at the end: no channel
   call per line, and a large file never sits in memory whole. Ids and
   counts print as [string_of_int] does; floats as "%.17g", which reads
   back bit for bit. *)
type sink = { buf : Buffer.t; oc : out_channel }

let spill_at = 65536
let add_char s c = Buffer.add_char s.buf c
let add_string s str = Buffer.add_string s.buf str
let add_int s i = Buffer.add_string s.buf (string_of_int i)
let add_float s x = Buffer.add_string s.buf (Printf.sprintf "%.17g" x)

let newline s =
  Buffer.add_char s.buf '\n';
  if Buffer.length s.buf >= spill_at then begin
    Buffer.output_buffer s.oc s.buf;
    Buffer.clear s.buf
  end

(* "[u] [v]\n" *)
let add_pair s u v =
  add_int s u;
  add_char s ' ';
  add_int s v;
  newline s

let write_file path f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let s = { buf = Buffer.create (2 * spill_at); oc } in
      f s;
      Buffer.output_buffer oc s.buf)

let write_instance_body s model =
  let n = Model.n model and dim = Model.dim model in
  add_int s n;
  add_char s ' ';
  add_int s dim;
  add_char s ' ';
  add_float s model.Model.alpha;
  newline s;
  Array.iter
    (fun p ->
      for i = 0 to dim - 1 do
        if i > 0 then add_char s ' ';
        add_float s (Point.coord p i)
      done;
      newline s)
    model.Model.points;
  add_int s (Wgraph.n_edges model.Model.graph);
  newline s;
  Wgraph.iter_edges model.Model.graph (fun u v _ -> add_pair s u v)

let save_instance path model =
  write_file path (fun s ->
      add_string s (Printf.sprintf "ubg-instance v%d" instance_version);
      newline s;
      write_instance_body s model)

let save_topology path g =
  write_file path (fun s ->
      add_string s (Printf.sprintf "ubg-topology v%d" topology_version);
      newline s;
      add_pair s (Wgraph.n_vertices g) (Wgraph.n_edges g);
      Wgraph.iter_edges g (fun u v _ -> add_pair s u v))

let write_point_fields s p =
  for i = 0 to Point.dim p - 1 do
    add_char s ' ';
    add_float s (Point.coord p i)
  done

let save_trace path (trace : Churn.trace) =
  write_file path (fun s ->
      add_string s (Printf.sprintf "ubg-churn v%d" trace_version);
      newline s;
      write_instance_body s trace.Churn.initial;
      add_int s (Array.length trace.Churn.batches);
      newline s;
      Array.iter
        (fun batch ->
          add_string s "batch ";
          add_int s (Array.length batch);
          newline s;
          Array.iter
            (fun ev ->
              (match ev with
              | Churn.Join p ->
                  add_string s "join";
                  write_point_fields s p
              | Churn.Leave i ->
                  add_string s "leave ";
                  add_int s i
              | Churn.Move (i, p) ->
                  add_string s "move ";
                  add_int s i;
                  write_point_fields s p);
              newline s)
            batch)
        trace.Churn.batches)

type 'g checkpoint_of = {
  ck_epoch : int;
  ck_events : int;
  ck_alpha : float;
  ck_points : Point.t array;
  ck_alive : bool array;
  ck_ubg : 'g;
  ck_spanner : 'g;
  ck_stretch : float;
}

type checkpoint = Wgraph.t checkpoint_of

let save_checkpoint path ck =
  let cap = Array.length ck.ck_points in
  if Array.length ck.ck_alive <> cap then
    invalid_arg "save_checkpoint: points/alive length mismatch";
  let dim = if cap = 0 then 0 else Point.dim ck.ck_points.(0) in
  write_file path (fun s ->
      add_string s (Printf.sprintf "ubg-checkpoint v%d" checkpoint_version);
      newline s;
      List.iter
        (fun i ->
          add_int s i;
          add_char s ' ')
        [ ck.ck_epoch; ck.ck_events; cap; dim ];
      add_float s ck.ck_alpha;
      add_char s ' ';
      add_float s ck.ck_stretch;
      newline s;
      Array.iteri
        (fun i p ->
          add_char s (if ck.ck_alive.(i) then '1' else '0');
          write_point_fields s p;
          newline s)
        ck.ck_points;
      let write_edges g =
        add_int s (Wgraph.n_edges g);
        newline s;
        Wgraph.iter_edges g (fun u v _ -> add_pair s u v)
      in
      write_edges ck.ck_ubg;
      write_edges ck.ck_spanner;
      add_string s "end";
      newline s)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* Every reader takes its input from a source of bytes, cuts it into
   lines, skips blanks and # comments and counts lines, so that each
   error names its line. Nothing here catches what the source raises: a
   tail's source raises when no more bytes are there yet, and a line is
   counted only once it is complete and taken.

   The bytes sit in [buf]; the line taken last is [buf.[start .. stop)],
   trimmed, and the next one starts at [next]. A line is scanned in
   place, [pos] being the cursor: no line is copied out of [buf], and
   none is split into a token list. [buf] is replaced only when a line
   runs past its end, by the rest of it and the source's next bytes. *)
type reader = {
  more : unit -> string option;
  name : string;
  mutable line : int;
  mutable buf : string;
  mutable start : int;
  mutable stop : int;
  mutable pos : int;
  mutable next : int;
}

let reader ~name more =
  { more; name; line = 0; buf = ""; start = 0; stop = 0; pos = 0; next = 0 }

let fail_at r line fmt =
  Printf.ksprintf
    (fun what -> failwith (Printf.sprintf "%s: line %d: %s" r.name line what))
    fmt

let fail r fmt = fail_at r r.line fmt

(* What the scanner raises. Each public entry turns it into [fail] at
   the line taken last, and [parse_event] into an [Error]. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun why -> raise (Bad why)) fmt
let guard r f = try f r with Bad why -> fail r "%s" why

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n' || c = '\012'

(* Make [buf.[i .. j)], trimmed as [String.trim] trims, the line. *)
let set_line r i j =
  let i = ref i and j = ref j in
  while !i < !j && is_space (String.unsafe_get r.buf !i) do
    incr i
  done;
  while !j > !i && is_space (String.unsafe_get r.buf (!j - 1)) do
    decr j
  done;
  r.start <- !i;
  r.stop <- !j;
  r.pos <- !i

(* The index of the first '\n' of [buf] at or past [i], or -1. *)
let newline_from buf i =
  let j = ref i and n = String.length buf in
  while !j < n && String.unsafe_get buf !j <> '\n' do
    incr j
  done;
  if !j < n then !j else -1

(* Take the next line: [true], or [false] at the end of the input. A
   last line without its newline is a line. *)
let rec take_line r =
  let nl = newline_from r.buf r.next in
  if nl >= 0 then begin
    r.line <- r.line + 1;
    set_line r r.next nl;
    r.next <- nl + 1;
    true
  end
  else
    let rest = String.length r.buf - r.next in
    match r.more () with
    | Some bytes ->
        r.buf <-
          (if rest = 0 then bytes
           else String.sub r.buf r.next rest ^ bytes);
        r.next <- 0;
        take_line r
    | None ->
        rest > 0
        && begin
             r.line <- r.line + 1;
             set_line r r.next (String.length r.buf);
             r.next <- String.length r.buf;
             true
           end

let rec next_line r =
  if not (take_line r) then bad "unexpected end of file"
  else if r.start = r.stop || String.unsafe_get r.buf r.start = '#' then
    next_line r

(* The line, for a message. *)
let current r = String.sub r.buf r.start (r.stop - r.start)

(* ---- the scanner ----------------------------------------------------

   Tokens are separated by blanks. A count, id or slot is decimal
   digits and nothing else; a coordinate, alpha or stretch is a finite
   decimal, one [float_of_string_opt] per token on a token of digits,
   '.', signs and exponent letters only. So [0x0], [0b1], [1_000],
   [+5], [nan] and [inf] are all refused. *)

let is_digit c = c >= '0' && c <= '9'

let skip_blanks r =
  let i = ref r.pos in
  while !i < r.stop && String.unsafe_get r.buf !i = ' ' do
    incr i
  done;
  r.pos <- !i

let token_end r i =
  let j = ref i in
  while !j < r.stop && String.unsafe_get r.buf !j <> ' ' do
    incr j
  done;
  !j

(* The token at the cursor, for a message. *)
let token r = String.sub r.buf r.pos (token_end r r.pos - r.pos)
let at_end r = r.pos >= r.stop

(* The decimal at the cursor, taken; [-1], with the cursor left at the
   token, when the token is not one or exceeds [max_int]. *)
let decimal r =
  skip_blanks r;
  let s = r.buf and start = r.pos in
  let i = ref start and v = ref 0 in
  while !v >= 0 && !i < r.stop && is_digit (String.unsafe_get s !i) do
    let d = Char.code (String.unsafe_get s !i) - Char.code '0' in
    v := if !v > (max_int - d) / 10 then -1 else (10 * !v) + d;
    incr i
  done;
  if !i = start || (!i < r.stop && String.unsafe_get s !i <> ' ') then -1
  else begin
    if !v >= 0 then r.pos <- !i;
    !v
  end

let count r ?(min = 0) what =
  let v = decimal r in
  if v < min then bad "expected %s >= %d, got %S" what min (token r) else v

let is_decimal_char c =
  is_digit c || c = '.' || c = 'e' || c = 'E' || c = '-' || c = '+'

let number r what =
  skip_blanks r;
  let start = r.pos in
  let stop = token_end r start in
  let plain = ref (stop > start) in
  for i = start to stop - 1 do
    if not (is_decimal_char (String.unsafe_get r.buf i)) then plain := false
  done;
  let tok = String.sub r.buf start (stop - start) in
  match if !plain then float_of_string_opt tok else None with
  | Some x when Float.is_finite x ->
      r.pos <- stop;
      x
  | _ -> bad "expected %s, got %S" what tok

(* Whether the token at the cursor is [w]; taken if so. *)
let word r w =
  skip_blanks r;
  let i = r.pos and k = String.length w in
  let rec same j =
    j = k || (String.unsafe_get r.buf (i + j) = w.[j] && same (j + 1))
  in
  if token_end r i - i = k && same 0 then begin
    r.pos <- i + k;
    true
  end
  else false

(* Nothing but blanks may follow on the line. *)
let finish r what =
  skip_blanks r;
  if not (at_end r) then bad "expected %s, got %S" what (current r)

(* A line holding one count. *)
let read_count r what =
  next_line r;
  let k = count r what in
  finish r what;
  k

(* [dim] coordinates, the rest of the line. *)
let point r ~dim =
  let c = Array.make dim 0.0 in
  for i = 0 to dim - 1 do
    skip_blanks r;
    if at_end r then bad "expected %d coordinates" dim;
    c.(i) <- number r "a coordinate"
  done;
  skip_blanks r;
  if not (at_end r) then bad "expected %d coordinates" dim;
  Point.create c

(* [read_n k f] is [f ()] [k] times, in order. [k] comes from the file,
   so it sizes no allocation: a count beyond the file fails at its
   end. *)
let read_n k f =
  let rec go i acc =
    if i = k then Array.of_list (List.rev acc) else go (i + 1) (f () :: acc)
  in
  go 0 []

(* [header] is "<family>" (the legacy unversioned form, read as v1) or
   "<family> vK" for 1 <= K <= [upto]. *)
let expect_header r ~family ~upto =
  next_line r;
  let version =
    if not (word r family) then -1
    else begin
      skip_blanks r;
      let s = r.buf and i = r.pos in
      if at_end r then 1
      else if s.[i] = 'v' && i + 1 < r.stop && is_digit s.[i + 1] then begin
        r.pos <- i + 1;
        let k = decimal r in
        if at_end r then k else -1
      end
      else -1
    end
  in
  if version < 1 || version > upto then
    bad "expected %s header (up to v%d), got %S" family upto (current r)

(* ---- edge lists -------------------------------------------------- *)

(* [edge_lines r points m f] reads [m] lines "u v" over the slots of
   [points] and calls [f u v w], [w] the distance of the endpoints: ids
   in range, u <> v, a positive weight and [check u v] ([Some why] when
   the caller's condition fails). *)
let edge_lines ~check r points m f =
  let n = Array.length points in
  for _ = 1 to m do
    next_line r;
    let u = count r "vertex id" in
    let v = count r "vertex id" in
    finish r "an edge \"u v\"";
    if u >= n || v >= n then bad "edge {%d,%d}: ids beyond %d" u v n;
    if u = v then bad "edge {%d,%d}: a self loop" u v;
    (match check u v with
    | Some why -> bad "edge {%d,%d}: %s" u v why
    | None -> ());
    let w = Point.distance points.(u) points.(v) in
    if not (w > 0.0) then bad "edge {%d,%d}: weight %g is not positive" u v w;
    f u v w
  done

let no_check _ _ = None

(* The edge lines into a graph. An edge read twice fails, as it does on
   the CSR path below. *)
let read_wgraph ?(check = no_check) r points m =
  let g = Wgraph.create (Array.length points) in
  edge_lines ~check r points m (fun u v w ->
      if Wgraph.mem_edge g u v then bad "edge {%d,%d}: repeated" u v;
      Wgraph.add_edge g u v w);
  g

(* [a] copied into an array of length [len]. *)
let resize a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The edge lines straight into a CSR: endpoints, weights and line
   numbers are collected in file order, then a counting sort by
   endpoint lays out both arcs of every edge and [Csr.of_arrays] sorts
   each slice. The result is [Csr.of_wgraph] of {!read_wgraph}'s graph,
   bit for bit. A repeated edge shows as two equal neighbours in a
   sorted slice; it fails at the line that repeats it. *)
let read_csr ?(check = no_check) r points m =
  let n = Array.length points in
  let ends = ref [||] and ws = ref [||] and lines = ref [||] in
  let k = ref 0 in
  edge_lines ~check r points m (fun u v w ->
      (* The edge count comes from the file, so it sizes nothing: the
         arrays double as the edges arrive. *)
      if !k = Array.length !ws then begin
        let cap = max 64 (2 * !k) in
        ends := resize !ends (2 * cap) 0;
        ws := resize !ws cap 0.0;
        lines := resize !lines cap 0
      end;
      !ends.(2 * !k) <- u;
      !ends.((2 * !k) + 1) <- v;
      !ws.(!k) <- w;
      !lines.(!k) <- r.line;
      incr k);
  let ends = !ends and ws = !ws and k = !k in
  let off = Array.make (n + 1) 0 in
  for a = 0 to (2 * k) - 1 do
    off.(ends.(a) + 1) <- off.(ends.(a) + 1) + 1
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let fill = Array.sub off 0 n in
  let dst = Array.make (2 * k) 0 and wgt = Array.make (2 * k) 0.0 in
  for a = 0 to (2 * k) - 1 do
    let u = ends.(a) in
    dst.(fill.(u)) <- ends.(a lxor 1);
    wgt.(fill.(u)) <- ws.(a / 2);
    fill.(u) <- fill.(u) + 1
  done;
  let c = Csr.of_arrays ~off ~dst ~wgt in
  for u = 0 to n - 1 do
    for a = off.(u) + 1 to off.(u + 1) - 1 do
      let v = c.Csr.dst.(a) in
      if v = c.Csr.dst.(a - 1) then begin
        (* The second line naming {u, v}. *)
        let seen = ref false and line = ref 0 in
        for i = 0 to k - 1 do
          let x = ends.(2 * i) and y = ends.((2 * i) + 1) in
          if !line = 0 && ((x = u && y = v) || (x = v && y = u)) then
            if !seen then line := !lines.(i) else seen := true
        done;
        fail_at r !line "edge {%d,%d}: repeated" (min u v) (max u v)
      end
    done
  done;
  c

(* ---- instances --------------------------------------------------- *)

(* "n dim alpha" and the n point lines: alpha and the points. *)
let read_points r =
  next_line r;
  let n = count r ~min:1 "n" in
  let dim = count r ~min:1 "dim" in
  let alpha = number r "alpha" in
  finish r "\"n dim alpha\"";
  let points =
    read_n n (fun () ->
        next_line r;
        point r ~dim)
  in
  (alpha, points)

let read_instance_body r =
  let alpha, points = read_points r in
  let g = read_wgraph r points (read_count r "edge count") in
  match Model.make ~alpha points g with
  | model -> model
  | exception Invalid_argument why -> bad "%s" why

type shape = { n : int; dim : int; alpha : float }

let shape_of_model m =
  { n = Model.n m; dim = Model.dim m; alpha = m.Model.alpha }

(* The instance body frozen and checked, as [Model.make] checks it, and
   then dropped: only its shape is kept. *)
let check_instance_body r =
  let alpha, points = read_points r in
  let g = read_csr r points (read_count r "edge count") in
  match
    Model.validate ~alpha points ~n_vertices:(Csr.n_vertices g)
      ~iter_edges:(Csr.iter_edges g)
      ~mem_edge:(fun u v -> Csr.mem_edge g u v)
  with
  | Ok () -> { n = Array.length points; dim = Point.dim points.(0); alpha }
  | Error why -> bad "%s" why

(* A file, read in 64 KB pieces. *)
let with_reader path f =
  let ic = open_in_bin path in
  let chunk = Bytes.create 65536 in
  let more () =
    match input ic chunk 0 (Bytes.length chunk) with
    | 0 -> None
    | k -> Some (Bytes.sub_string chunk 0 k)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> guard (reader ~name:path more) f)

let load_instance path =
  with_reader path (fun r ->
      expect_header r ~family:"ubg-instance" ~upto:instance_version;
      read_instance_body r)

let check_instance path =
  with_reader path (fun r ->
      expect_header r ~family:"ubg-instance" ~upto:instance_version;
      check_instance_body r)

let load_topology path ~model =
  with_reader path (fun r ->
      expect_header r ~family:"ubg-topology" ~upto:topology_version;
      next_line r;
      let n = count r "n" in
      if n <> Model.n model then
        bad "%d vertices, the instance has %d" n (Model.n model);
      let m = count r "edge count" in
      finish r "\"n m\"";
      read_wgraph r model.Model.points m ~check:(fun u v ->
          if Wgraph.mem_edge model.Model.graph u v then None
          else Some "not an instance edge"))

(* ------------------------------------------------------------------ *)
(* Churn traces and events                                             *)
(* ------------------------------------------------------------------ *)

let event r ~dim =
  if word r "join" then Churn.Join (point r ~dim)
  else if word r "leave" then begin
    let i = count r "leave slot" in
    finish r "\"leave <slot>\"";
    Churn.Leave i
  end
  else if word r "move" then begin
    let i = count r "move slot" in
    Churn.Move (i, point r ~dim)
  end
  else bad "unrecognized event %S" (current r)

let parse_event ~dim line =
  let r = { (reader ~name:"" (fun () -> None)) with buf = line } in
  set_line r 0 (String.length line);
  match event r ~dim with ev -> Ok ev | exception Bad why -> Error why

let trace_prefix r body =
  expect_header r ~family:"ubg-churn" ~upto:trace_version;
  let initial = body r in
  (initial, read_count r "batch count")

let read_trace_prefix r = guard r (fun r -> trace_prefix r read_instance_body)
let check_trace_prefix r = guard r (fun r -> trace_prefix r check_instance_body)

let batch_header r =
  next_line r;
  if not (word r "batch") then bad "expected \"batch <k>\"";
  let k = count r "batch size" in
  finish r "\"batch <k>\"";
  k

let read_batch_header r = guard r batch_header

let read_event r ~dim =
  guard r (fun r ->
      next_line r;
      event r ~dim)

let load_trace path =
  with_reader path (fun r ->
      let initial, b = trace_prefix r read_instance_body in
      let dim = Model.dim initial in
      let batches =
        read_n b (fun () ->
            read_n (batch_header r) (fun () ->
                next_line r;
                event r ~dim))
      in
      { Churn.initial; batches })

(* ------------------------------------------------------------------ *)
(* Engine checkpoints                                                  *)
(* ------------------------------------------------------------------ *)

let load_checkpoint_csr path =
  with_reader path (fun r ->
      expect_header r ~family:"ubg-checkpoint" ~upto:checkpoint_version;
      next_line r;
      let epoch = count r "epoch" in
      let events = count r "event count" in
      let cap = count r ~min:1 "cap" in
      let dim = count r ~min:1 "dim" in
      let alpha = number r "alpha" in
      let stretch = number r "stretch" in
      finish r "\"epoch events cap dim alpha stretch\"";
      let alive = ref [] in
      let points =
        read_n cap (fun () ->
            next_line r;
            let a =
              if word r "1" then true
              else if word r "0" then false
              else bad "expected a slot \"<0|1> <coordinates>\""
            in
            alive := a :: !alive;
            point r ~dim)
      in
      let alive = Array.of_list (List.rev !alive) in
      let ubg =
        read_csr r points (read_count r "α-UBG edge count") ~check:(fun u v ->
            if alive.(u) && alive.(v) then None else Some "on a dead slot")
      in
      let spanner =
        read_csr r points (read_count r "spanner edge count")
          ~check:(fun u v ->
            if Csr.mem_edge ubg u v then None
            else Some "missing from the α-UBG")
      in
      next_line r;
      if not (word r "end" && at_end r) then
        bad "expected the end sentinel (file truncated?)";
      {
        ck_epoch = epoch;
        ck_events = events;
        ck_alpha = alpha;
        ck_points = points;
        ck_alive = alive;
        ck_ubg = ubg;
        ck_spanner = spanner;
        ck_stretch = stretch;
      })

let load_checkpoint path =
  let ck = load_checkpoint_csr path in
  {
    ck with
    ck_ubg = Csr.to_wgraph ck.ck_ubg;
    ck_spanner = Csr.to_wgraph ck.ck_spanner;
  }
