module Wgraph = Graph.Wgraph
module Fault_tolerant = Topo.Fault_tolerant
open Test_helpers

let prop_k0_equals_seq_greedy =
  qtest ~count:30 "fault: k = 0 coincides with SEQ-GREEDY" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 30 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      let a = Fault_tolerant.spanner g ~t:1.5 ~k:0
      and b = Topo.Seq_greedy.spanner g ~t:1.5 in
      List.sort compare (Wgraph.edges a) = List.sort compare (Wgraph.edges b))

let prop_monotone_in_k =
  qtest ~count:20 "fault: more tolerance means more edges" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 4 + Random.State.int st 25 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      let e0 = Wgraph.n_edges (Fault_tolerant.spanner g ~t:1.5 ~k:0)
      and e1 = Wgraph.n_edges (Fault_tolerant.spanner g ~t:1.5 ~k:1)
      and e2 = Wgraph.n_edges (Fault_tolerant.spanner g ~t:1.5 ~k:2) in
      e0 <= e1 && e1 <= e2 && e2 <= Wgraph.n_edges g)

let prop_k1_survives_any_single_fault =
  (* Exhaustive single-fault check on small UBG instances: for every
     spanner edge fault, the survivor still t-spans the faulted base. *)
  qtest ~count:12 "fault: k = 1 survives every single edge fault" seed_arb
    (fun seed ->
      let model = connected_model ~seed ~n:(20 + (seed mod 20)) ~dim:2 ~alpha:0.8 in
      let g = model.Ubg.Model.graph in
      let t = 1.8 in
      let s = Fault_tolerant.spanner g ~t ~k:1 in
      List.for_all
        (fun (e : Wgraph.edge) ->
          Fault_tolerant.stretch_under_faults ~base:g ~spanner:s
            ~faults:[ (e.u, e.v) ]
          <= t +. 1e-9)
        (Wgraph.edges s))

let prop_ft_is_t_spanner =
  qtest ~count:20 "fault: fault-tolerant output still t-spans faultlessly"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 4 + Random.State.int st 25 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      let s = Fault_tolerant.spanner g ~t:1.5 ~k:1 in
      Topo.Verify.is_t_spanner ~base:g ~spanner:s ~t:1.5)

let prop_vertex_k0_equals_seq_greedy =
  qtest ~count:25 "fault: vertex variant at k = 0 is SEQ-GREEDY" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 25 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 30) in
      let a = Fault_tolerant.vertex_spanner g ~t:1.5 ~k:0
      and b = Topo.Seq_greedy.spanner g ~t:1.5 in
      List.sort compare (Wgraph.edges a) = List.sort compare (Wgraph.edges b))

(* A vertex k = 1 spanner also survives any single edge fault: an edge
   it skipped had two internally vertex-disjoint paths within budget,
   each of at least two edges (the direct edge was not yet kept), and
   such paths share no edge, so one of them avoids the fault. *)
let vertex_spanner_survives_edge_faults g =
  let t = 1.5 in
  let s = Fault_tolerant.vertex_spanner g ~t ~k:1 in
  List.for_all
    (fun (e : Wgraph.edge) ->
      Fault_tolerant.stretch_under_faults ~base:g ~spanner:s
        ~faults:[ (e.u, e.v) ]
      <= t +. 1e-9)
    (Wgraph.edges s)

let fault_graph seed =
  let st = rand_state seed in
  let n = 4 + Random.State.int st 20 in
  random_graph ~st ~n ~extra_edges:(Random.State.int st 30)

let prop_vertex_survives_edge_faults =
  qtest ~count:20 "fault: vertex variant survives any single edge fault"
    seed_arb (fun seed -> vertex_spanner_survives_edge_faults (fault_graph seed))

(* Seed 2477 is why the vertex variant is not claimed to be at least as
   dense as the edge variant: its greedy keeps 13 edges where the edge
   variant keeps 14. It still survives every single edge fault. *)
let test_seed_2477 () =
  let g = fault_graph 2477 in
  Alcotest.(check int) "vertex variant edges" 13
    (Wgraph.n_edges (Fault_tolerant.vertex_spanner g ~t:1.5 ~k:1));
  Alcotest.(check int) "edge variant edges" 14
    (Wgraph.n_edges (Fault_tolerant.spanner g ~t:1.5 ~k:1));
  Alcotest.(check bool) "survives every single edge fault" true
    (vertex_spanner_survives_edge_faults g)

let prop_vertex_k1_survives_single_vertex_fault =
  qtest ~count:8 "fault: vertex k = 1 survives any single vertex fault"
    seed_arb (fun seed ->
      let model = connected_model ~seed ~n:(16 + (seed mod 12)) ~dim:2 ~alpha:0.8 in
      let g = model.Ubg.Model.graph in
      let t = 1.8 in
      let s = Fault_tolerant.vertex_spanner g ~t ~k:1 in
      let n = Wgraph.n_vertices g in
      let ok = ref true in
      for x = 0 to n - 1 do
        if
          Fault_tolerant.stretch_under_vertex_faults ~base:g ~spanner:s
            ~faults:[ x ]
          > t +. 1e-9
        then ok := false
      done;
      !ok)

let test_vertex_disjoint_short_paths () =
  (* Two routes sharing an interior hub: only one vertex-disjoint path
     within budget. *)
  let g =
    Wgraph.of_edges ~n:5
      [ (0, 1, 1.0); (1, 4, 1.0); (0, 2, 1.0); (2, 4, 1.0); (0, 3, 5.0);
        (3, 4, 5.0) ]
  in
  Alcotest.(check int) "two disjoint cheap routes" 2
    (Fault_tolerant.vertex_disjoint_short_paths g ~u:0 ~v:4 ~budget:2.0
       ~want:5);
  Alcotest.(check int) "third route too long" 2
    (Fault_tolerant.vertex_disjoint_short_paths g ~u:0 ~v:4 ~budget:9.0
       ~want:5);
  Alcotest.(check int) "bigger budget admits it" 3
    (Fault_tolerant.vertex_disjoint_short_paths g ~u:0 ~v:4 ~budget:10.0
       ~want:5)

let prop_ft_implies_flow_redundancy =
  (* Menger cross-check: in a k-EFT greedy spanner, any input edge that
     was skipped must see at least k+1 edge-disjoint routes between its
     endpoints (ignoring length), as counted by max-flow. *)
  qtest ~count:12 "fault: skipped edges have k+1 disjoint routes (Menger)"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 5 + Random.State.int st 15 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 30) in
      let k = 1 in
      let s = Fault_tolerant.spanner g ~t:1.6 ~k in
      List.for_all
        (fun (e : Wgraph.edge) ->
          Wgraph.mem_edge s e.u e.v
          || Graph.Flow.edge_disjoint_paths s e.u e.v >= k + 1)
        (Wgraph.edges g))

let test_disjoint_short_paths_known () =
  (* Two vertex-disjoint 2-hop routes of length 2 each. *)
  let g =
    Wgraph.of_edges ~n:4
      [ (0, 1, 1.0); (1, 3, 1.0); (0, 2, 1.0); (2, 3, 1.0) ]
  in
  Alcotest.(check int) "both routes within budget" 2
    (Fault_tolerant.disjoint_short_paths g ~u:0 ~v:3 ~budget:2.0 ~want:5);
  Alcotest.(check int) "tight budget excludes none" 2
    (Fault_tolerant.disjoint_short_paths g ~u:0 ~v:3 ~budget:2.0 ~want:2);
  Alcotest.(check int) "budget below both" 0
    (Fault_tolerant.disjoint_short_paths g ~u:0 ~v:3 ~budget:1.5 ~want:2);
  Alcotest.(check int) "want caps the count" 1
    (Fault_tolerant.disjoint_short_paths g ~u:0 ~v:3 ~budget:2.0 ~want:1)

let test_disjoint_paths_do_not_mutate () =
  let g = Wgraph.of_edges ~n:2 [ (0, 1, 1.0) ] in
  ignore (Fault_tolerant.disjoint_short_paths g ~u:0 ~v:1 ~budget:2.0 ~want:3);
  Alcotest.(check int) "graph untouched" 1 (Wgraph.n_edges g)

let test_errors () =
  let g = Wgraph.create 2 in
  Alcotest.(check bool) "t < 1" true
    (try
       ignore (Fault_tolerant.spanner g ~t:0.5 ~k:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "k < 0" true
    (try
       ignore (Fault_tolerant.spanner g ~t:1.5 ~k:(-1));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "fault_tolerant"
    [
      ( "greedy",
        [
          prop_k0_equals_seq_greedy;
          prop_monotone_in_k;
          prop_k1_survives_any_single_fault;
          prop_ft_is_t_spanner;
          prop_ft_implies_flow_redundancy;
        ] );
      ( "vertex variant",
        [
          prop_vertex_k0_equals_seq_greedy;
          prop_vertex_survives_edge_faults;
          prop_vertex_k1_survives_single_vertex_fault;
          Alcotest.test_case "vertex-disjoint short paths" `Quick
            test_vertex_disjoint_short_paths;
          Alcotest.test_case "seed 2477: sparser, still edge-tolerant" `Quick
            test_seed_2477;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "disjoint short paths" `Quick
            test_disjoint_short_paths_known;
          Alcotest.test_case "no mutation" `Quick test_disjoint_paths_do_not_mutate;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
    ]
