module Point = Geometry.Point
module Wgraph = Graph.Wgraph

(* On-disk format versions. Writers always emit the current version;
   readers accept every version ever shipped, including the pre-v1
   unversioned headers ("ubg-instance" with no suffix). *)
let instance_version = 2
let topology_version = 1
let trace_version = 1
let checkpoint_version = 1

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

(* Line reader skipping blanks and # comments, tracking line numbers
   for error messages. *)
type reader = { ic : in_channel; mutable line : int }

let next_line r =
  let rec go () =
    match In_channel.input_line r.ic with
    | None -> failwith (Printf.sprintf "line %d: unexpected end of file" r.line)
    | Some raw ->
        r.line <- r.line + 1;
        let s = String.trim raw in
        if s = "" || s.[0] = '#' then go () else s
  in
  go ()

let fields s = String.split_on_char ' ' s |> List.filter (fun f -> f <> "")

let parse_err r what = failwith (Printf.sprintf "line %d: expected %s" r.line what)

(* [expect_header r ~family ~upto] accepts "<family>" (the legacy
   unversioned form, read as v1) and "<family> vK" for 1 <= K <= upto,
   returning K. *)
let expect_header r ~family ~upto =
  let line = next_line r in
  let bad () =
    failwith
      (Printf.sprintf "line %d: expected %s header (up to v%d), got %S" r.line
         family upto line)
  in
  if line = family then 1
  else
    match fields line with
    | [ f; v ]
      when f = family
           && String.length v >= 2
           && v.[0] = 'v'
           && String.for_all
                (fun c -> c >= '0' && c <= '9')
                (String.sub v 1 (String.length v - 1)) ->
        let k = int_of_string (String.sub v 1 (String.length v - 1)) in
        if k < 1 || k > upto then bad () else k
    | _ -> bad ()

let read_instance_body r =
  let n, dim, alpha =
    match fields (next_line r) with
    | [ a; b; c ] -> (
        try (int_of_string a, int_of_string b, float_of_string c)
        with Failure _ -> parse_err r "n dim alpha")
    | _ -> parse_err r "n dim alpha"
  in
  let points =
    Array.init n (fun _ ->
        let coords = fields (next_line r) in
        if List.length coords <> dim then parse_err r "point coordinates";
        try Point.of_list (List.map float_of_string coords)
        with Failure _ -> parse_err r "point coordinates")
  in
  let m =
    match fields (next_line r) with
    | [ a ] -> ( try int_of_string a with Failure _ -> parse_err r "edge count")
    | _ -> parse_err r "edge count"
  in
  let g = Wgraph.create n in
  for _ = 1 to m do
    match fields (next_line r) with
    | [ a; b ] -> (
        try
          let u = int_of_string a and v = int_of_string b in
          Wgraph.add_edge g u v (Point.distance points.(u) points.(v))
        with Failure _ | Invalid_argument _ -> parse_err r "edge")
    | _ -> parse_err r "edge"
  done;
  Model.make ~alpha points g

let load_instance path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r = { ic; line = 0 } in
      let _version =
        expect_header r ~family:"ubg-instance" ~upto:instance_version
      in
      read_instance_body r)

let save_topology path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "ubg-topology v%d\n%d %d\n" topology_version
        (Wgraph.n_vertices g) (Wgraph.n_edges g);
      Wgraph.iter_edges g (fun u v _ -> Printf.fprintf oc "%d %d\n" u v))

let load_topology path ~model =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r = { ic; line = 0 } in
      let _version =
        expect_header r ~family:"ubg-topology" ~upto:topology_version
      in
      let n, m =
        match fields (next_line r) with
        | [ a; b ] -> (
            try (int_of_string a, int_of_string b)
            with Failure _ -> parse_err r "n m")
        | _ -> parse_err r "n m"
      in
      if n <> Model.n model then failwith "load_topology: vertex count mismatch";
      let g = Wgraph.create n in
      for _ = 1 to m do
        match fields (next_line r) with
        | [ a; b ] ->
            let u, v =
              try (int_of_string a, int_of_string b)
              with Failure _ -> parse_err r "edge"
            in
            if u < 0 || u >= n || v < 0 || v >= n then parse_err r "edge ids";
            if not (Wgraph.mem_edge model.Model.graph u v) then
              failwith
                (Printf.sprintf "load_topology: {%d,%d} not an instance edge" u v);
            Wgraph.add_edge g u v (Model.distance model u v)
        | _ -> parse_err r "edge"
      done;
      g)

(* ------------------------------------------------------------------ *)
(* Churn traces                                                        *)
(* ------------------------------------------------------------------ *)

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

let load_trace path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r = { ic; line = 0 } in
      let _version = expect_header r ~family:"ubg-churn" ~upto:trace_version in
      let initial = read_instance_body r in
      let dim = Model.dim initial in
      let point_of coords =
        if List.length coords <> dim then parse_err r "event coordinates";
        try Point.of_list (List.map float_of_string coords)
        with Failure _ -> parse_err r "event coordinates"
      in
      let n_batches =
        match fields (next_line r) with
        | [ a ] -> (
            try int_of_string a with Failure _ -> parse_err r "batch count")
        | _ -> parse_err r "batch count"
      in
      let batches =
        Array.init n_batches (fun _ ->
            let k =
              match fields (next_line r) with
              | [ "batch"; a ] -> (
                  try int_of_string a
                  with Failure _ -> parse_err r "batch size")
              | _ -> parse_err r "batch header"
            in
            Array.init k (fun _ ->
                match fields (next_line r) with
                | "join" :: coords -> Churn.Join (point_of coords)
                | [ "leave"; a ] -> (
                    try Churn.Leave (int_of_string a)
                    with Failure _ -> parse_err r "leave slot")
                | "move" :: a :: coords -> (
                    try Churn.Move (int_of_string a, point_of coords)
                    with Failure _ -> parse_err r "move slot")
                | _ -> parse_err r "event"))
      in
      { Churn.initial; batches })

(* ------------------------------------------------------------------ *)
(* Engine checkpoints                                                  *)
(* ------------------------------------------------------------------ *)

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

let load_checkpoint path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r = { ic; line = 0 } in
      let _version =
        expect_header r ~family:"ubg-checkpoint" ~upto:checkpoint_version
      in
      let epoch, events, cap, dim, alpha, stretch =
        match fields (next_line r) with
        | [ a; b; c; d; e; f ] -> (
            try
              ( int_of_string a, int_of_string b, int_of_string c,
                int_of_string d, float_of_string e, float_of_string f )
            with Failure _ -> parse_err r "epoch events cap dim alpha stretch")
        | _ -> parse_err r "epoch events cap dim alpha stretch"
      in
      if cap <= 0 || dim <= 0 then parse_err r "positive cap and dim";
      let alive = Array.make cap false in
      let points =
        Array.init cap (fun i ->
            match fields (next_line r) with
            | flag :: coords when List.length coords = dim -> (
                (match flag with
                | "1" -> alive.(i) <- true
                | "0" -> alive.(i) <- false
                | _ -> parse_err r "alive flag");
                try Point.of_list (List.map float_of_string coords)
                with Failure _ -> parse_err r "slot coordinates")
            | _ -> parse_err r "slot line")
      in
      let read_edges what =
        let m =
          match fields (next_line r) with
          | [ a ] -> (
              try int_of_string a
              with Failure _ -> parse_err r (what ^ " edge count"))
          | _ -> parse_err r (what ^ " edge count")
        in
        let g = Wgraph.create cap in
        for _ = 1 to m do
          match fields (next_line r) with
          | [ a; b ] -> (
              try
                let u = int_of_string a and v = int_of_string b in
                if u < 0 || u >= cap || v < 0 || v >= cap then
                  failwith "ids out of range";
                if not (alive.(u) && alive.(v)) then
                  failwith "edge on a dead slot";
                Wgraph.add_edge g u v (Point.distance points.(u) points.(v))
              with Failure _ | Invalid_argument _ ->
                parse_err r (what ^ " edge"))
          | _ -> parse_err r (what ^ " edge")
        done;
        g
      in
      let ubg = read_edges "ubg" in
      let spanner = read_edges "spanner" in
      Wgraph.iter_edges spanner (fun u v _ ->
          if not (Wgraph.mem_edge ubg u v) then
            failwith
              (Printf.sprintf
                 "load_checkpoint: spanner edge {%d,%d} missing from the α-UBG"
                 u v));
      (match next_line r with
      | "end" -> ()
      | _ -> parse_err r "end sentinel (file truncated?)");
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
