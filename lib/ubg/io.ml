module Point = Geometry.Point
module Wgraph = Graph.Wgraph

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

type checkpoint = {
  ck_epoch : int;
  ck_events : int;
  ck_alpha : float;
  ck_points : Point.t array;
  ck_alive : bool array;
  ck_ubg : Wgraph.t;
  ck_spanner : Wgraph.t;
  ck_stretch : float;
}

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

(* Every reader takes lines from a source, skips blanks and # comments
   and counts lines, so that each error names its line. Nothing here
   catches what the source raises: a tail's source raises when its
   buffered lines run out, and a line is counted only once taken. *)
type reader = {
  next : unit -> string option;
  name : string;
  mutable line : int;
}

let reader ~name next = { next; name; line = 0 }

let fail r fmt =
  Printf.ksprintf
    (fun what -> failwith (Printf.sprintf "%s: line %d: %s" r.name r.line what))
    fmt

let rec next_line r =
  match r.next () with
  | None -> fail r "unexpected end of file"
  | Some raw ->
      r.line <- r.line + 1;
      let s = String.trim raw in
      if s = "" || s.[0] = '#' then next_line r else s

let fields s = String.split_on_char ' ' s |> List.filter (fun f -> f <> "")

let count r ?(min = 0) what s =
  match int_of_string_opt s with
  | Some k when k >= min -> k
  | _ -> fail r "expected %s >= %d, got %S" what min s

let number r what s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> fail r "expected %s, got %S" what s

(* A line holding one count. *)
let read_count r what =
  match fields (next_line r) with
  | [ a ] -> count r what a
  | _ -> fail r "expected %s" what

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
  let line = next_line r in
  let version =
    if line = family then Some 1
    else
      match fields line with
      | [ f; v ]
        when f = family
             && String.length v >= 2
             && v.[0] = 'v'
             && String.for_all
                  (fun c -> c >= '0' && c <= '9')
                  (String.sub v 1 (String.length v - 1)) ->
          int_of_string_opt (String.sub v 1 (String.length v - 1))
      | _ -> None
  in
  match version with
  | Some k when k >= 1 && k <= upto -> ()
  | _ -> fail r "expected %s header (up to v%d), got %S" family upto line

let point_of ~dim coords =
  if List.length coords <> dim then
    Error (Printf.sprintf "expected %d coordinates" dim)
  else
    match List.map float_of_string coords with
    | cs -> Ok (Point.of_list cs)
    | exception Failure _ -> Error "bad coordinate"

let read_point r ~dim coords =
  match point_of ~dim coords with Ok p -> p | Error why -> fail r "%s" why

(* [read_edges r points m] reads [m] lines "u v" into a graph over the
   slots of [points], each edge weighed by the distance of its
   endpoints: ids in range, u <> v, a positive weight, and [check u v]
   ([Some why] when the caller's condition fails). *)
let read_edges ?(check = fun _ _ -> None) r points m =
  let n = Array.length points in
  let g = Wgraph.create n in
  for _ = 1 to m do
    match fields (next_line r) with
    | [ a; b ] ->
        let u = count r "vertex id" a in
        let v = count r "vertex id" b in
        if u >= n || v >= n then fail r "edge {%d,%d}: ids beyond %d" u v n;
        if u = v then fail r "edge {%d,%d}: a self loop" u v;
        (match check u v with
        | Some why -> fail r "edge {%d,%d}: %s" u v why
        | None -> ());
        let w = Point.distance points.(u) points.(v) in
        if not (w > 0.0) then
          fail r "edge {%d,%d}: weight %g is not positive" u v w;
        Wgraph.add_edge g u v w
    | _ -> fail r "expected an edge \"u v\""
  done;
  g

let read_instance_body r =
  let n, dim, alpha =
    match fields (next_line r) with
    | [ a; b; c ] ->
        let n = count r ~min:1 "n" a in
        let dim = count r ~min:1 "dim" b in
        (n, dim, number r "alpha" c)
    | _ -> fail r "expected \"n dim alpha\""
  in
  let points = read_n n (fun () -> read_point r ~dim (fields (next_line r))) in
  let g = read_edges r points (read_count r "edge count") in
  match Model.make ~alpha points g with
  | model -> model
  | exception Invalid_argument why -> fail r "%s" why

let with_reader path f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> f (reader ~name:path (fun () -> In_channel.input_line ic)))

let load_instance path =
  with_reader path (fun r ->
      expect_header r ~family:"ubg-instance" ~upto:instance_version;
      read_instance_body r)

let load_topology path ~model =
  with_reader path (fun r ->
      expect_header r ~family:"ubg-topology" ~upto:topology_version;
      let m =
        match fields (next_line r) with
        | [ a; b ] ->
            let n = count r "n" a in
            if n <> Model.n model then
              fail r "%d vertices, the instance has %d" n (Model.n model);
            count r "edge count" b
        | _ -> fail r "expected \"n m\""
      in
      read_edges r model.Model.points m ~check:(fun u v ->
          if Wgraph.mem_edge model.Model.graph u v then None
          else Some "not an instance edge"))

(* ------------------------------------------------------------------ *)
(* Churn traces and events                                             *)
(* ------------------------------------------------------------------ *)

let parse_event ~dim line =
  match fields line with
  | "join" :: coords ->
      Result.map (fun p -> Churn.Join p) (point_of ~dim coords)
  | [ "leave"; a ] -> (
      match int_of_string_opt a with
      | Some i -> Ok (Churn.Leave i)
      | None -> Error "bad leave slot")
  | "move" :: a :: coords -> (
      match int_of_string_opt a with
      | Some i -> Result.map (fun p -> Churn.Move (i, p)) (point_of ~dim coords)
      | None -> Error "bad move slot")
  | _ -> Error (Printf.sprintf "unrecognized event %S" line)

let read_trace_prefix r =
  expect_header r ~family:"ubg-churn" ~upto:trace_version;
  let initial = read_instance_body r in
  (initial, read_count r "batch count")

let read_batch_header r =
  match fields (next_line r) with
  | [ "batch"; k ] -> count r "batch size" k
  | _ -> fail r "expected \"batch <k>\""

let read_event r ~dim =
  match parse_event ~dim (next_line r) with
  | Ok ev -> ev
  | Error why -> fail r "%s" why

let load_trace path =
  with_reader path (fun r ->
      let initial, b = read_trace_prefix r in
      let dim = Model.dim initial in
      let batches =
        read_n b (fun () ->
            read_n (read_batch_header r) (fun () -> read_event r ~dim))
      in
      { Churn.initial; batches })

(* ------------------------------------------------------------------ *)
(* Engine checkpoints                                                  *)
(* ------------------------------------------------------------------ *)

let load_checkpoint path =
  with_reader path (fun r ->
      expect_header r ~family:"ubg-checkpoint" ~upto:checkpoint_version;
      let epoch, events, cap, dim, alpha, stretch =
        match fields (next_line r) with
        | [ a; b; c; d; e; f ] ->
            let epoch = count r "epoch" a in
            let events = count r "event count" b in
            let cap = count r ~min:1 "cap" c in
            let dim = count r ~min:1 "dim" d in
            let alpha = number r "alpha" e in
            (epoch, events, cap, dim, alpha, number r "stretch" f)
        | _ -> fail r "expected \"epoch events cap dim alpha stretch\""
      in
      let slots =
        read_n cap (fun () ->
            match fields (next_line r) with
            | "1" :: coords -> (true, read_point r ~dim coords)
            | "0" :: coords -> (false, read_point r ~dim coords)
            | _ -> fail r "expected a slot \"<0|1> <coordinates>\"")
      in
      let alive = Array.map fst slots and points = Array.map snd slots in
      let ubg =
        read_edges r points (read_count r "α-UBG edge count")
          ~check:(fun u v ->
            if alive.(u) && alive.(v) then None else Some "on a dead slot")
      in
      let spanner =
        read_edges r points (read_count r "spanner edge count")
          ~check:(fun u v ->
            if Wgraph.mem_edge ubg u v then None
            else Some "missing from the α-UBG")
      in
      if next_line r <> "end" then
        fail r "expected the end sentinel (file truncated?)";
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
