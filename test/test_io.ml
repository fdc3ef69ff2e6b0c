module Wgraph = Graph.Wgraph
module Io = Ubg.Io
module Model = Ubg.Model
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

let test_malformed_inputs () =
  expect_failure "bad header" "not-a-header\n1 2 0.5\n";
  expect_failure "truncated points" "ubg-instance v1\n3 2 0.5\n0 0\n";
  expect_failure "bad coordinate" "ubg-instance v1\n1 2 0.5\n0 zero\n0\n";
  expect_failure "bad edge" "ubg-instance v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 7\n";
  expect_failure "missing edge count" "ubg-instance v1\n1 2 0.5\n0 0\n"

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

let test_malformed_trace () =
  let bad content =
    let path = write_file content in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Alcotest.(check bool) "rejected" true
          (try
             ignore (Io.load_trace path);
             false
           with Failure _ -> true))
  in
  bad "ubg-topology v1\n2 1\n0 1\n";
  bad "ubg-churn v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 1\n1\nbatch 1\nexplode 3\n";
  bad "ubg-churn v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 1\n1\nbatch 1\nmove x 0 0\n";
  bad "ubg-churn v1\n2 2 0.9\n0 0\n0.5 0\n1\n0 1\n2\nbatch 1\nleave 0\n"

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
        Alcotest.(check bool) what true
          (try
             ignore (Io.load_checkpoint bad);
             false
           with Failure _ -> true))
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
          Alcotest.test_case "malformed checkpoints rejected" `Quick
            test_checkpoint_rejects_malformed;
          Alcotest.test_case "coexists with instance format" `Quick
            test_checkpoint_coexists_with_instance_format;
        ] );
    ]
