module Wgraph = Graph.Wgraph
module Io = Ubg.Io
module Model = Ubg.Model
module Tail = Daemon.Ingest.Tail
open Test_helpers

let temp_file suffix = Filename.temp_file "topo_test" suffix

let prop_instance_roundtrip =
  qtest ~count:20 "io: instance save/load round-trips" seed_arb (fun seed ->
      let st = rand_state seed in
      let dim = 2 + Random.State.int st 2 in
      let model = random_model ~seed ~n:(5 + Random.State.int st 40) ~dim ~alpha:0.8 in
      let path = temp_file ".ubg" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Io.save_instance path model;
          let loaded = Io.load_instance path in
          Model.n loaded = Model.n model
          && Model.dim loaded = Model.dim model
          && loaded.Model.alpha = model.Model.alpha
          && Wgraph.n_edges loaded.Model.graph = Wgraph.n_edges model.Model.graph
          && List.for_all
               (fun (e : Wgraph.edge) ->
                 match Wgraph.weight loaded.Model.graph e.u e.v with
                 | Some w -> close ~eps:1e-9 w e.w
                 | None -> false)
               (Wgraph.edges model.Model.graph)))

let prop_topology_roundtrip =
  qtest ~count:15 "io: topology save/load round-trips" seed_arb (fun seed ->
      let model = random_model ~seed ~n:30 ~dim:2 ~alpha:0.8 in
      let spanner =
        (Topo.Relaxed_greedy.build_eps ~eps:0.5 model).Topo.Relaxed_greedy.spanner
      in
      let path = temp_file ".topo" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Io.save_topology path spanner;
          let loaded = Io.load_topology path ~model in
          List.sort compare (Wgraph.edges loaded)
          = List.sort compare (Wgraph.edges spanner)))

let write_file content =
  let path = temp_file ".bad" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let expect_failure what content =
  let path = write_file content in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check bool) what true
        (try
           ignore (Io.load_instance path);
           false
         with Failure _ -> true))

(* Each malformed input must fail as a [Failure] that names its file
   and line; anything else a loader lets escape ([Invalid_argument])
   fails the case. *)
let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let rejects what path read =
  match read path with
  | _ -> Alcotest.failf "%s: loaded" what
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names the file and a line" what msg)
        true
        (String.starts_with ~prefix:path msg && contains msg ": line ")

(* Opens a tail on [path] and polls it dry. *)
let drain_tail open_ path =
  let t = open_ path in
  Fun.protect
    ~finally:(fun () -> Tail.close t)
    (fun () ->
      while Option.is_some (Tail.poll t) do
        ()
      done)

let tail_read = drain_tail (fun p -> Tail.open_ p)

(* The same through the tail a resume opens, which checks the instance
   without keeping it. *)
let checked_tail_read = drain_tail (fun p -> Tail.open_checked p)

let with_file content f =
  let path = write_file content in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let malformed_instances =
  [
    ("bad header", "not-a-header\n1 2 0.5\n");
    ("truncated points", "ubg-instance v1\n3 2 0.5\n0 0\n");
    ("bad coordinate", "ubg-instance v1\n1 2 0.5\n0 zero\n0\n");
    ("bad edge", "ubg-instance v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 7\n");
    ("missing edge count", "ubg-instance v1\n1 2 0.5\n0 0\n");
  ]

(* The instance reader, and the checking reader a resume uses instead
   ({!Io.check_instance}, which builds no model). *)
let test_malformed_inputs () =
  List.iter
    (fun (what, content) ->
      let path = write_file content in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          rejects what path Io.load_instance;
          rejects ("checked: " ^ what) path Io.check_instance))
    malformed_instances

let test_comments_and_blanks () =
  let path =
    write_file
      "# a comment\nubg-instance v1\n\n2 2 0.9\n0 0\n# midway comment\n0.5 0\n1\n0 1\n"
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = Io.load_instance path in
      Alcotest.(check int) "n" 2 (Model.n m);
      Alcotest.(check int) "m" 1 (Wgraph.n_edges m.Model.graph))

(* The header was originally the bare family name, then "v1"; both must
   keep loading now that writers emit "ubg-instance v2". *)
let test_header_compatibility () =
  let body = "2 2 0.9\n0 0\n0.5 0\n1\n0 1\n" in
  List.iter
    (fun header ->
      let path = write_file (header ^ "\n" ^ body) in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let m = Io.load_instance path in
          Alcotest.(check int) (header ^ ": n") 2 (Model.n m);
          Alcotest.(check int)
            (header ^ ": m")
            1
            (Wgraph.n_edges m.Model.graph)))
    [ "ubg-instance"; "ubg-instance v1"; "ubg-instance v2" ];
  expect_failure "future version rejected" ("ubg-instance v99\n" ^ body);
  expect_failure "bad version suffix rejected" ("ubg-instance vX\n" ^ body)

let test_writer_emits_current_version () =
  let model = random_model ~seed:1 ~n:12 ~dim:2 ~alpha:0.8 in
  let path = temp_file ".ubg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_instance path model;
      let ic = open_in path in
      let header =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> input_line ic)
      in
      Alcotest.(check string) "header" "ubg-instance v2" header)

let event_eq a b =
  match (a, b) with
  | Ubg.Churn.Join p, Ubg.Churn.Join q -> Geometry.Point.compare p q = 0
  | Ubg.Churn.Leave i, Ubg.Churn.Leave j -> i = j
  | Ubg.Churn.Move (i, p), Ubg.Churn.Move (j, q) ->
      i = j && Geometry.Point.compare p q = 0
  | _ -> false

let prop_trace_roundtrip =
  qtest ~count:15 "io: churn trace save/load round-trips" seed_arb (fun seed ->
      let st = rand_state seed in
      let model = random_model ~seed ~n:(10 + Random.State.int st 30) ~dim:2 ~alpha:0.8 in
      let trace =
        Ubg.Churn.generate ~seed ~epochs:(1 + Random.State.int st 6)
          ~batch_max:5
          (Ubg.Churn.default_dynamics ~side:4.0)
          model
      in
      let path = temp_file ".churn" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Io.save_trace path trace;
          let loaded = Io.load_trace path in
          Model.n loaded.Ubg.Churn.initial = Model.n model
          && Wgraph.n_edges loaded.Ubg.Churn.initial.Model.graph
             = Wgraph.n_edges model.Model.graph
          && Array.length loaded.Ubg.Churn.batches
             = Array.length trace.Ubg.Churn.batches
          && Array.for_all2
               (fun (x : Ubg.Churn.batch) (y : Ubg.Churn.batch) ->
                 Array.length x = Array.length y && Array.for_all2 event_eq x y)
               loaded.Ubg.Churn.batches trace.Ubg.Churn.batches))

(* Through [load_trace] and both tails; a trace that ends early fails
   only [load_trace], since a tail waits for the rest. *)
let test_malformed_trace () =
  let bad ?(tails = true) what content =
    with_file content (fun path ->
        rejects what path Io.load_trace;
        if tails then begin
          rejects ("tail: " ^ what) path tail_read;
          rejects ("resuming tail: " ^ what) path checked_tail_read
        end)
  in
  bad "topology header" "ubg-topology v1\n2 1\n0 1\n";
  bad "unknown event"
    "ubg-churn v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 1\n1\nbatch 1\nexplode 3\n";
  bad "bad move slot"
    "ubg-churn v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 1\n1\nbatch 1\nmove x 0 0\n";
  bad ~tails:false "a batch short"
    "ubg-churn v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 1\n2\nbatch 1\nleave 0\n"

let test_topology_must_be_subgraph () =
  let model = random_model ~seed:3 ~n:10 ~dim:2 ~alpha:0.8 in
  (* Find a non-edge. *)
  let non_edge =
    let found = ref None in
    for u = 0 to 9 do
      for v = u + 1 to 9 do
        if !found = None && not (Wgraph.mem_edge model.Model.graph u v) then
          found := Some (u, v)
      done
    done;
    !found
  in
  match non_edge with
  | None -> () (* dense instance; nothing to test *)
  | Some (u, v) ->
      let path =
        write_file (Printf.sprintf "ubg-topology v1\n10 1\n%d %d\n" u v)
      in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Alcotest.(check bool) "foreign edge rejected" true
            (try
               ignore (Io.load_topology path ~model);
               false
             with Failure _ -> true))

(* Every entry that reads a checkpoint: the one parser, into CSR, its
   thawed form, and the daemon's loader on top of it. *)
let checkpoint_readers =
  [
    ("load_checkpoint_csr", fun p -> ignore (Io.load_checkpoint_csr p));
    ("load_checkpoint", fun p -> ignore (Io.load_checkpoint p));
    ("Checkpoint.load", fun p -> ignore (Daemon.Checkpoint.load p));
  ]

(* ---- engine checkpoints ("ubg-checkpoint v1") ------------------------

   The daemon's resume guarantee rests on this format round-tripping the
   engine's certified state exactly: coordinates are written with %.17g
   (lossless for doubles) and edge weights are recomputed from them on
   load, so a reloaded checkpoint must compare equal field by field. *)

let canonical g =
  List.sort compare
    (List.map
       (fun (e : Wgraph.edge) -> (min e.u e.v, max e.u e.v, e.w))
       (Wgraph.edges g))

let engine_checkpoint ~seed ~epochs =
  let model = connected_model ~seed ~n:24 ~dim:2 ~alpha:0.9 in
  let trace =
    Ubg.Churn.generate ~seed ~epochs ~batch_max:4
      (Ubg.Churn.default_dynamics ~side:4.0)
      model
  in
  let params = Topo.Params.of_epsilon ~eps:0.5 ~alpha:0.9 ~dim:2 in
  let engine = Dynamic.Engine.create ~params model in
  Array.iter
    (fun batch -> ignore (Dynamic.Engine.apply_batch engine batch))
    trace.Ubg.Churn.batches;
  let snap = Dynamic.Engine.latest engine in
  {
    Io.ck_epoch = snap.Dynamic.Engine.snap_epoch;
    ck_events = Ubg.Churn.n_events trace;
    ck_alpha = 0.9;
    ck_points = snap.Dynamic.Engine.snap_points;
    ck_alive = snap.Dynamic.Engine.snap_alive;
    ck_ubg = Graph.Csr.to_wgraph snap.Dynamic.Engine.snap_ubg;
    ck_spanner = Graph.Csr.to_wgraph snap.Dynamic.Engine.snap_spanner;
    ck_stretch = snap.Dynamic.Engine.snap_stretch;
  }

let checkpoint_eq (a : Io.checkpoint) (b : Io.checkpoint) =
  a.Io.ck_epoch = b.Io.ck_epoch
  && a.Io.ck_events = b.Io.ck_events
  && a.Io.ck_alpha = b.Io.ck_alpha
  && a.Io.ck_stretch = b.Io.ck_stretch
  && a.Io.ck_alive = b.Io.ck_alive
  && Array.length a.Io.ck_points = Array.length b.Io.ck_points
  && Array.for_all2
       (fun p q -> Geometry.Point.compare p q = 0)
       a.Io.ck_points b.Io.ck_points
  && canonical a.Io.ck_ubg = canonical b.Io.ck_ubg
  && canonical a.Io.ck_spanner = canonical b.Io.ck_spanner

let prop_checkpoint_roundtrip =
  qtest ~count:8 "io: checkpoint save/load round-trips exactly" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let ck = engine_checkpoint ~seed ~epochs:(2 + Random.State.int st 5) in
      let path = temp_file ".ck" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Io.save_checkpoint path ck;
          checkpoint_eq ck (Io.load_checkpoint path)))

(* The checkpoint writer as it was when each line went through its own
   [Printf.fprintf]: the buffered writer must emit the same bytes. *)
let save_checkpoint_printf path (ck : Io.checkpoint) =
  let cap = Array.length ck.Io.ck_points in
  let dim = if cap = 0 then 0 else Geometry.Point.dim ck.Io.ck_points.(0) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "ubg-checkpoint v%d\n" 1;
      Printf.fprintf oc "%d %d %d %d %.17g %.17g\n" ck.Io.ck_epoch
        ck.Io.ck_events cap dim ck.Io.ck_alpha ck.Io.ck_stretch;
      Array.iteri
        (fun i p ->
          output_string oc (if ck.Io.ck_alive.(i) then "1" else "0");
          for k = 0 to Geometry.Point.dim p - 1 do
            output_char oc ' ';
            Printf.fprintf oc "%.17g" (Geometry.Point.coord p k)
          done;
          output_char oc '\n')
        ck.Io.ck_points;
      let write_edges g =
        Printf.fprintf oc "%d\n" (Wgraph.n_edges g);
        Wgraph.iter_edges g (fun u v _ -> Printf.fprintf oc "%d %d\n" u v)
      in
      write_edges ck.Io.ck_ubg;
      write_edges ck.Io.ck_spanner;
      output_string oc "end\n")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* An engine checkpoint after churn, its capacity grown by dead slots
   at awkward coordinates, enough of them that the writer's buffer
   reaches the channel several times (and one alive slot killed, with
   its edges), written by both writers. *)
let test_checkpoint_bytes_unchanged () =
  let ck = engine_checkpoint ~seed:5 ~epochs:6 in
  let awkward =
    [| [ 0.1; 1e-300 ]; [ -0.0; 1.0 /. 3.0 ]; [ 123456789.123; 5e-324 ] |]
  in
  let extra =
    Array.init 6000 (fun i ->
        if i < 3 then Geometry.Point.of_list awkward.(i)
        else
          Geometry.Point.of_list
            [ float_of_int i /. 7.0; sqrt (float_of_int i) ])
  in
  let alive =
    Array.append ck.Io.ck_alive (Array.make (Array.length extra) false)
  in
  let dead = ref (-1) in
  Array.iteri (fun i a -> if a && !dead < 0 then dead := i) alive;
  alive.(!dead) <- false;
  let without g =
    let h = Wgraph.copy g in
    List.iter
      (fun (v, _) -> ignore (Wgraph.remove_edge h !dead v))
      (Wgraph.neighbors g !dead);
    h
  in
  let ck =
    {
      ck with
      Io.ck_points = Array.append ck.Io.ck_points extra;
      ck_alive = alive;
      ck_ubg = without ck.Io.ck_ubg;
      ck_spanner = without ck.Io.ck_spanner;
      ck_stretch = Float.pi;
    }
  in
  let a = temp_file ".ck" and b = temp_file ".ck" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove a;
      Sys.remove b)
    (fun () ->
      Io.save_checkpoint a ck;
      save_checkpoint_printf b ck;
      Alcotest.(check bool) "past several spills" true
        (String.length (read_file b) > 3 * 65536);
      Alcotest.(check string) "same bytes" (read_file b) (read_file a);
      Alcotest.(check bool) "loads back" true
        (checkpoint_eq ck (Io.load_checkpoint a)))

(* Corrupted checkpoints must be rejected loudly rather than resumed
   from: a daemon restarting on garbage state would silently serve
   wrong answers forever. *)
let test_checkpoint_rejects_malformed () =
  let ck = engine_checkpoint ~seed:7 ~epochs:3 in
  let path = temp_file ".ck" in
  let lines =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Io.save_checkpoint path ck;
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let acc = ref [] in
            (try
               while true do
                 acc := input_line ic :: !acc
               done
             with End_of_file -> ());
            List.rev !acc))
  in
  let reject what ls =
    let bad = write_file (String.concat "\n" ls ^ "\n") in
    Fun.protect
      ~finally:(fun () -> Sys.remove bad)
      (fun () ->
        List.iter
          (fun (entry, read) -> rejects (entry ^ ": " ^ what) bad read)
          checkpoint_readers)
  in
  let n = List.length lines in
  reject "missing end sentinel"
    (List.filteri (fun i _ -> i < n - 1) lines);
  reject "truncated mid-body" (List.filteri (fun i _ -> i < n / 2) lines);
  reject "future version rejected" ("ubg-checkpoint v9" :: List.tl lines);
  reject "wrong family rejected" ("ubg-instance v2" :: List.tl lines);
  (* And the happy path still holds after all that slicing around. *)
  let good = write_file (String.concat "\n" lines ^ "\n") in
  Fun.protect
    ~finally:(fun () -> Sys.remove good)
    (fun () ->
      Alcotest.(check bool) "untampered copy loads" true
        (checkpoint_eq ck (Io.load_checkpoint good)))

(* The checkpoint format must not disturb legacy readers: an instance
   file saved by today's writer (v2 header) keeps loading, and a
   checkpoint header is not mistaken for an instance. *)
let test_checkpoint_coexists_with_instance_format () =
  let model = random_model ~seed:11 ~n:10 ~dim:2 ~alpha:0.8 in
  let path = temp_file ".ubg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save_instance path model;
      let loaded = Io.load_instance path in
      Alcotest.(check int) "legacy instance n" (Model.n model) (Model.n loaded);
      Alcotest.(check bool) "checkpoint loader rejects instance files" true
        (try
           ignore (Io.load_checkpoint path);
           false
         with Failure _ -> true))

(* ---- one reader, every entry ------------------------------------------

   Each malformed input must fail as a [Failure] that names its file and
   line through every entry that reads it: for an instance body,
   [load_instance], [check_instance], [load_trace] and the daemon's tail
   in both its fresh and its resuming form; for a trace's batches,
   [load_trace] and both tails; for a checkpoint, [checkpoint_readers].
   Anything else a loader lets escape ([Invalid_argument]) fails the
   case. *)

let test_malformed_everywhere () =
  (* Instance bodies, the part after the header that instance and trace
     files share. Two points 5 apart need no edge, so a negative edge
     count read as none would load a valid α-UBG. *)
  List.iter
    (fun (what, body) ->
      with_file ("ubg-instance v2\n" ^ body) (fun path ->
          rejects ("instance: " ^ what) path Io.load_instance;
          rejects ("checked instance: " ^ what) path Io.check_instance);
      with_file ("ubg-churn v1\n" ^ body ^ "0\n") (fun path ->
          rejects ("trace: " ^ what) path Io.load_trace;
          rejects ("tail: " ^ what) path tail_read;
          rejects ("resuming tail: " ^ what) path checked_tail_read))
    [
      ("n = -1", "-1 2 0.9\n0 0\n0\n");
      ("n = 0", "0 2 0.9\n0\n");
      ("dim = 0", "1 0 0.9\n0\n");
      ("n beyond the file", "100000000000000000 2 0.9\n0 0\n5 0\n0\n");
      ("negative edge count", "2 2 0.9\n0 0\n5 0\n-1\n");
      ("edge between coincident points", "2 2 0.9\n0 0\n0 0\n1\n0 1\n");
      ("not an α-UBG", "2 2 0.9\n0 0\n0.5 0\n0\n");
    ];
  let good_body = "2 2 0.9\n0 0\n0.5 0\n1\n0 1\n" in
  List.iter
    (fun (what, rest) ->
      with_file ("ubg-churn v1\n" ^ good_body ^ rest) (fun path ->
          rejects ("trace: " ^ what) path Io.load_trace;
          rejects ("tail: " ^ what) path tail_read;
          rejects ("resuming tail: " ^ what) path checked_tail_read))
    [
      ("negative batch count", "-1\n");
      ("negative event count", "1\nbatch -1\n");
      ("unknown event", "1\nbatch 1\nexplode 3\n");
    ];
  (* Checkpoints: header, [body], "end"; the slots are [good_body]'s. *)
  let good_slots = "1 0 0\n1 0.5 0\n" in
  List.iter
    (fun (what, body) ->
      with_file ("ubg-checkpoint v1\n" ^ body ^ "end\n") (fun path ->
          List.iter
            (fun (entry, read) ->
              rejects (entry ^ ": " ^ what) path read)
            checkpoint_readers))
    [
      ("edge count -1", "0 0 2 2 0.9 1\n" ^ good_slots ^ "-1\n0\n");
      ("negative epoch", "-3 0 2 2 0.9 1\n" ^ good_slots ^ "1\n0 1\n1\n0 1\n");
      ("negative event count", "0 -5 2 2 0.9 1\n" ^ good_slots ^ "1\n0 1\n1\n0 1\n");
      ( "edge between coincident points",
        "0 0 2 2 0.9 1\n1 0 0\n1 0 0\n1\n0 1\n0\n" );
      ("spanner edge off the α-UBG", "0 0 2 2 0.9 1\n" ^ good_slots ^ "0\n1\n0 1\n");
    ];
  (* The well-formed versions of the above load. *)
  with_file ("ubg-churn v1\n" ^ good_body ^ "1\nbatch 1\nleave 1\n")
    (fun path ->
      Alcotest.(check int) "good trace" 1
        (Array.length (Io.load_trace path).Ubg.Churn.batches);
      tail_read path;
      checked_tail_read path);
  with_file
    ("ubg-checkpoint v1\n0 0 2 2 0.9 1\n" ^ good_slots ^ "1\n0 1\n1\n0 1\nend\n")
    (fun path ->
      Alcotest.(check int) "good checkpoint" 1
        (Wgraph.n_edges (Io.load_checkpoint path).Io.ck_spanner))

(* Numbers the writers never emit fail by name on every entry. Counts,
   ids and slots take decimal digits only, where [int_of_string] would
   read [0x0], [0b1], [0u3], [1_000] and [+5]; coordinates, alpha and
   stretch take finite decimals only, where [float_of_string] would read
   [nan], [inf] and hexadecimal. So [0x0 0b1] is not the edge
   {0, 1}. *)
let test_numbers_never_written () =
  List.iter
    (fun (what, body) ->
      with_file ("ubg-instance v2\n" ^ body) (fun path ->
          rejects ("instance: " ^ what) path Io.load_instance;
          rejects ("checked instance: " ^ what) path Io.check_instance);
      with_file ("ubg-churn v1\n" ^ body ^ "0\n") (fun path ->
          rejects ("trace: " ^ what) path Io.load_trace;
          rejects ("tail: " ^ what) path tail_read;
          rejects ("resuming tail: " ^ what) path checked_tail_read))
    [
      ("hexadecimal and binary ids", "2 2 0.9\n0 0\n0.5 0\n1\n0x0 0b1\n");
      ("unsigned n", "0u2 2 0.9\n0 0\n0.5 0\n1\n0 1\n");
      ("underscored edge count", "2 2 0.9\n0 0\n0.5 0\n0_1\n0 1\n");
      ("signed n", "+2 2 0.9\n0 0\n0.5 0\n1\n0 1\n");
      ("nan coordinate", "2 2 0.9\nnan 0\n5 0\n0\n");
      ("inf coordinate", "2 2 0.9\n0 0\n5 inf\n0\n");
      ("hexadecimal coordinate", "2 2 0.9\n0x1p-1 0\n5 0\n0\n");
      ("alpha = nan", "2 2 nan\n0 0\n5 0\n0\n");
      ("alpha = inf", "2 2 inf\n0 0\n5 0\n0\n");
    ];
  let good_body = "2 2 0.9\n0 0\n0.5 0\n1\n0 1\n" in
  List.iter
    (fun (what, rest) ->
      with_file ("ubg-churn v1\n" ^ good_body ^ rest) (fun path ->
          rejects ("trace: " ^ what) path Io.load_trace;
          rejects ("tail: " ^ what) path tail_read;
          rejects ("resuming tail: " ^ what) path checked_tail_read))
    [
      ("hexadecimal batch count", "0x1\nbatch 1\nleave 1\n");
      ("binary batch size", "1\nbatch 0b1\nleave 1\n");
      ("hexadecimal leave slot", "1\nbatch 1\nleave 0x1\n");
      ("signed leave slot", "1\nbatch 1\nleave +1\n");
      ("nan join", "1\nbatch 1\njoin nan 0\n");
      ("inf move", "1\nbatch 1\nmove 1 inf 0\n");
      ("binary move slot", "1\nbatch 1\nmove 0b1 0 0\n");
    ];
  List.iter
    (fun line ->
      Alcotest.(check bool) ("event rejected: " ^ line) true
        (Result.is_error (Io.parse_event ~dim:2 line)))
    [
      "leave 0x1"; "leave 1_0"; "leave +1"; "leave -1"; "join nan 0";
      "join inf 0"; "join 0x1p-1 0"; "move 0b1 0.5 0"; "move 1 0.5 -inf";
    ];
  let good_slots = "1 0 0\n1 0.5 0\n" and edges = "1\n0 1\n1\n0 1\n" in
  List.iter
    (fun (what, body) ->
      with_file ("ubg-checkpoint v1\n" ^ body ^ "end\n") (fun path ->
          List.iter
            (fun (entry, read) -> rejects (entry ^ ": " ^ what) path read)
            checkpoint_readers))
    [
      ("hexadecimal epoch", "0x1 0 2 2 0.9 1\n" ^ good_slots ^ edges);
      ("unsigned capacity", "0 0 0u2 2 0.9 1\n" ^ good_slots ^ edges);
      ("alpha = nan", "0 0 2 2 nan 1\n" ^ good_slots ^ edges);
      ("stretch = inf", "0 0 2 2 0.9 inf\n" ^ good_slots ^ edges);
      ("nan slot", "0 0 2 2 0.9 1\n1 nan 0\n1 0.5 0\n" ^ edges);
      ("alive flag 01", "0 0 2 2 0.9 1\n01 0 0\n1 0.5 0\n" ^ edges);
      ( "hexadecimal α-UBG edge",
        "0 0 2 2 0.9 1\n" ^ good_slots ^ "1\n0x0 0b1\n1\n0 1\n" );
      ( "binary spanner edge",
        "0 0 2 2 0.9 1\n" ^ good_slots ^ "1\n0 1\n1\n0b0 1\n" );
    ];
  (* A NaN alpha fails the α-UBG check itself, not only the scanner. *)
  let points =
    [| Geometry.Point.make2 0.0 0.0; Geometry.Point.make2 5.0 0.0 |]
  in
  Alcotest.(check bool) "Model.make rejects alpha = nan" true
    (match Model.make ~alpha:Float.nan points (Wgraph.create 2) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* An edge listed twice fails by name at the line that repeats it, on
   every path: the hashtable readers and the CSR parser alike, so no
   reader collapses what another rejects. *)
let test_repeated_edge () =
  let repeated_at line what path read =
    match read path with
    | _ -> Alcotest.failf "%s: loaded" what
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names line %d and the repeat" what msg line)
          true
          (String.starts_with
             ~prefix:(Printf.sprintf "%s: line %d: " path line)
             msg
          && contains msg "repeated")
  in
  (* The repeat on line 8, past a comment, reversed. *)
  let body = "2 2 0.9\n0 0\n0.5 0\n2\n0 1\n# again\n1 0\n" in
  with_file ("ubg-instance v2\n" ^ body) (fun path ->
      repeated_at 8 "instance" path Io.load_instance;
      repeated_at 8 "checked instance" path Io.check_instance);
  with_file ("ubg-churn v1\n" ^ body ^ "0\n") (fun path ->
      repeated_at 8 "trace" path Io.load_trace;
      repeated_at 8 "tail" path tail_read;
      repeated_at 8 "resuming tail" path checked_tail_read);
  with_file "ubg-instance v2\n2 2 0.9\n0 0\n0.5 0\n1\n0 1\n" (fun inst ->
      let model = Io.load_instance inst in
      with_file "ubg-topology v1\n2 2\n0 1\n0 1\n" (fun path ->
          repeated_at 4 "topology" path (fun p -> Io.load_topology p ~model)));
  let head = "ubg-checkpoint v1\n0 0 2 2 0.9 1\n1 0 0\n1 0.5 0\n" in
  List.iter
    (fun (what, line, edges) ->
      with_file (head ^ edges ^ "end\n") (fun path ->
          List.iter
            (fun (entry, read) ->
              repeated_at line (entry ^ ": " ^ what) path read)
            checkpoint_readers))
    [
      ("α-UBG", 7, "2\n0 1\n1 0\n1\n0 1\n");
      ("spanner", 9, "1\n0 1\n2\n0 1\n0 1\n");
    ]

(* The byte offset just past the [k]-th newline of [s]. *)
let after_lines s k =
  let rec go i k =
    if k = 0 then i else go (String.index_from s i '\n' + 1) (k - 1)
  in
  go 0 k

let append path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* A recorded trace, its prefix (header, instance, batch count: n + m +
   4 lines) and the rest. *)
let split_trace ~seed =
  let st = rand_state seed in
  let n = 8 + Random.State.int st 20 in
  let model = random_model ~seed ~n ~dim:2 ~alpha:0.8 in
  let trace =
    Ubg.Churn.generate ~seed ~epochs:(1 + Random.State.int st 8) ~batch_max:5
      (Ubg.Churn.default_dynamics ~side:4.0)
      model
  in
  let path = temp_file ".churn" in
  Io.save_trace path trace;
  let text = read_file path in
  let cut = after_lines text (n + Wgraph.n_edges model.Model.graph + 4) in
  (path, String.sub text 0 cut, String.sub text cut (String.length text - cut))

(* The tail appended to in random chunks, cut anywhere (mid-line
   included), returns exactly the batches [load_trace] reads. *)
let prop_tail_chunks_equal_load_trace =
  qtest ~count:30 "tail: random chunks read as load_trace" seed_arb (fun seed ->
      let full, prefix, rest = split_trace ~seed in
      let path = temp_file ".churn" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove full;
          Sys.remove path)
        (fun () ->
          let expected = (Io.load_trace full).Ubg.Churn.batches in
          let oc = open_out_bin path in
          output_string oc prefix;
          close_out oc;
          let t = Tail.open_ path in
          Fun.protect
            ~finally:(fun () -> Tail.close t)
            (fun () ->
              let st = rand_state (seed + 1) in
              let got = ref [] in
              let rec drain () =
                match Tail.poll t with
                | Some b ->
                    got := b :: !got;
                    drain ()
                | None -> ()
              in
              let pos = ref 0 in
              while !pos < String.length rest do
                let k =
                  min (1 + Random.State.int st 40) (String.length rest - !pos)
                in
                append path (String.sub rest !pos k);
                pos := !pos + k;
                drain ()
              done;
              let got = Array.of_list (List.rev !got) in
              got = expected
              && Tail.batches_read t = Array.length expected
              && Tail.events_read t
                 = Array.fold_left (fun a b -> a + Array.length b) 0 expected)))

(* A prefix torn mid-edge-list: no wait fails by name; a wait opens it
   once another domain writes the rest before the deadline. *)
let test_torn_prefix () =
  let full, prefix, _ = split_trace ~seed:3 in
  let path = temp_file ".churn" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove full;
      Sys.remove path)
    (fun () ->
      let expected = Io.load_trace full in
      let model = expected.Ubg.Churn.initial in
      (* Two and a half edge lines in. *)
      let edges = after_lines prefix (Model.n model + 3) in
      let cut = after_lines prefix (Model.n model + 5) + 1 in
      Alcotest.(check bool) "the cut lies inside the edge list" true
        (edges < cut && cut < String.length prefix - 2);
      let oc = open_out_bin path in
      output_string oc (String.sub prefix 0 cut);
      close_out oc;
      rejects "torn prefix" path (fun p -> Tail.open_ ~wait_prefix:0.0 p);
      rejects "torn prefix, resuming" path (fun p ->
          Tail.open_checked ~wait_prefix:0.0 p);
      let writer =
        Domain.spawn (fun () ->
            Unix.sleepf 0.1;
            append path (String.sub prefix cut (String.length prefix - cut)))
      in
      let t = Tail.open_ ~wait_prefix:10.0 path in
      Domain.join writer;
      Fun.protect
        ~finally:(fun () -> Tail.close t)
        (fun () ->
          let initial = Tail.initial t in
          Alcotest.(check int) "n" (Model.n model) (Model.n initial);
          Alcotest.(check bool) "the same edges" true
            (Wgraph.edges initial.Model.graph = Wgraph.edges model.Model.graph);
          Alcotest.(check int) "advertised batches"
            (Array.length expected.Ubg.Churn.batches)
            (Tail.advertised_batches t)))

let () =
  Alcotest.run "io"
    [
      ( "io",
        [
          prop_instance_roundtrip;
          prop_topology_roundtrip;
          Alcotest.test_case "malformed inputs" `Quick test_malformed_inputs;
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
          Alcotest.test_case "topology subgraph check" `Quick
            test_topology_must_be_subgraph;
        ] );
      ( "versioning",
        [
          Alcotest.test_case "legacy and current headers load" `Quick
            test_header_compatibility;
          Alcotest.test_case "writer emits v2" `Quick
            test_writer_emits_current_version;
        ] );
      ( "trace",
        [
          prop_trace_roundtrip;
          Alcotest.test_case "malformed traces rejected" `Quick
            test_malformed_trace;
        ] );
      ( "checkpoint",
        [
          prop_checkpoint_roundtrip;
          Alcotest.test_case "buffered writer emits the Printf writer's bytes"
            `Quick test_checkpoint_bytes_unchanged;
          Alcotest.test_case "malformed checkpoints rejected" `Quick
            test_checkpoint_rejects_malformed;
          Alcotest.test_case "coexists with instance format" `Quick
            test_checkpoint_coexists_with_instance_format;
        ] );
      ( "reader",
        [
          Alcotest.test_case "malformed inputs fail by line, every entry"
            `Quick test_malformed_everywhere;
          Alcotest.test_case "numbers the writers never emit fail by name"
            `Quick test_numbers_never_written;
          Alcotest.test_case "a repeated edge fails by line, every entry"
            `Quick test_repeated_edge;
          prop_tail_chunks_equal_load_trace;
          Alcotest.test_case "torn prefix: fails at once, opens when written"
            `Quick test_torn_prefix;
        ] );
    ]
