module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
open Test_helpers

(* Edge sets as canonical sorted (u, v, w) lists, u < v. *)
let edge_set edges =
  List.sort compare
    (List.map
       (fun (e : Wgraph.edge) -> (min e.u e.v, max e.u e.v, e.w))
       edges)

let prop_roundtrip =
  qtest ~count:50 "csr: of_wgraph |> to_wgraph preserves the graph" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let g' = Csr.to_wgraph c in
      Csr.n_vertices c = n
      && Csr.n_edges c = Wgraph.n_edges g
      && Wgraph.n_edges g' = Wgraph.n_edges g
      && edge_set (Wgraph.edges g') = edge_set (Wgraph.edges g))

let prop_adjacency_sorted =
  qtest ~count:50 "csr: adjacency slices are strictly sorted by id" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let ok = ref true in
      for u = 0 to n - 1 do
        let prev = ref (-1) in
        Csr.iter_neighbors c u (fun v w ->
            if v <= !prev then ok := false;
            prev := v;
            if Wgraph.weight g u v <> Some w then ok := false);
        if Csr.degree c u <> Wgraph.degree g u then ok := false
      done;
      !ok)

let prop_mem_and_weight =
  qtest ~count:50 "csr: mem_edge/weight agree with the builder" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 50) in
      let c = Csr.of_wgraph g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            if Csr.mem_edge c u v <> Wgraph.mem_edge g u v then ok := false;
            if Csr.weight c u v <> Wgraph.weight g u v then ok := false
          end
        done
      done;
      !ok)

let prop_iter_edges_each_once =
  qtest ~count:50 "csr: iter_edges emits each edge once, u < v, sorted"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let seen = ref [] in
      Csr.iter_edges c (fun u v w -> seen := (u, v, w) :: !seen);
      let seen = List.rev !seen in
      List.length seen = Wgraph.n_edges g
      && List.for_all (fun (u, v, _) -> u < v) seen
      && List.sort compare seen = seen
      && List.sort compare seen = edge_set (Wgraph.edges g))

(* The algorithm cores must be metric-identical on both representations
   for random UBG instances. *)
let prop_dijkstra_agrees =
  qtest ~count:30 "csr: Dijkstra distances identical on Wgraph vs Csr"
    seed_arb (fun seed ->
      let model = random_model ~seed ~n:60 ~dim:2 ~alpha:0.8 in
      let g = model.Ubg.Model.graph in
      let c = Csr.of_wgraph g in
      let ok = ref true in
      for src = 0 to min 9 (Wgraph.n_vertices g - 1) do
        let dw = Graph.Dijkstra.distances g src
        and dc = Graph.Dijkstra.distances_csr c src in
        if dw <> dc then ok := false
      done;
      !ok)

let prop_mst_agrees =
  qtest ~count:30 "csr: MST weight identical on Wgraph vs Csr" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let sum es =
        List.fold_left (fun acc (e : Wgraph.edge) -> acc +. e.w) 0.0 es
      in
      close (Graph.Mst.weight g) (Graph.Mst.weight_csr c)
      && close (sum (Graph.Mst.kruskal g)) (sum (Graph.Mst.kruskal_csr c))
      && close (sum (Graph.Mst.prim g)) (sum (Graph.Mst.prim_csr c)))

let prop_components_agree =
  qtest ~count:30 "csr: components identical on Wgraph vs Csr" seed_arb
    (fun seed ->
      let model = random_model ~seed ~n:50 ~dim:2 ~alpha:0.8 in
      let g = model.Ubg.Model.graph in
      let c = Csr.of_wgraph g in
      Graph.Components.labels g = Graph.Components.labels_csr c
      && Graph.Components.count g = Graph.Components.count_csr c
      && Graph.Components.is_connected g = Graph.Components.is_connected_csr c)

let test_empty_graph () =
  let g = Wgraph.create 5 in
  let c = Csr.of_wgraph g in
  Alcotest.(check int) "vertices" 5 (Csr.n_vertices c);
  Alcotest.(check int) "edges" 0 (Csr.n_edges c);
  Alcotest.(check int) "max degree" 0 (Csr.max_degree c);
  Alcotest.(check bool) "no edge" false (Csr.mem_edge c 0 1);
  let hit = ref false in
  Csr.iter_edges c (fun _ _ _ -> hit := true);
  Alcotest.(check bool) "iter_edges silent" false !hit

let test_total_weight () =
  let g = Wgraph.create 3 in
  Wgraph.add_edge g 0 1 1.5;
  Wgraph.add_edge g 1 2 2.5;
  let c = Csr.of_wgraph g in
  check_float "total weight" 4.0 (Csr.total_weight c);
  Alcotest.(check int) "n_edges" 2 (Csr.n_edges c);
  check_float "weight lookup" 2.5
    (Option.value ~default:nan (Csr.weight c 2 1))

(* ------------------------------------------------------------------ *)
(* Adopting caller-built arrays                                        *)
(* ------------------------------------------------------------------ *)

let prop_of_arrays_sorts =
  (* of_arrays must normalize arbitrarily-ordered slices to the exact
     layout of_wgraph produces — this is the contract the cluster-graph
     emit depends on. *)
  qtest ~count:40 "csr: of_arrays normalizes reversed slices" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 50) in
      let c = Csr.of_wgraph g in
      let m2 = Array.length c.Csr.dst in
      let dst = Array.make m2 0 and wgt = Array.make m2 0.0 in
      (* Refill each slice in reverse order, then let of_arrays sort. *)
      for u = 0 to n - 1 do
        let lo = c.Csr.off.(u) and hi = c.Csr.off.(u + 1) in
        for k = lo to hi - 1 do
          let k' = hi - 1 - (k - lo) in
          dst.(k) <- c.Csr.dst.(k');
          wgt.(k) <- c.Csr.wgt.(k')
        done
      done;
      Csr.of_arrays ~off:(Array.copy c.Csr.off) ~dst ~wgt = c)

let test_of_arrays_rejects_malformed () =
  let rejects ~off ~dst ~wgt =
    try
      ignore (Csr.of_arrays ~off ~dst ~wgt);
      false
    with Invalid_argument _ -> true
  in
  let dst = [| 1; 0 |] and wgt = [| 1.0; 1.0 |] in
  Alcotest.(check bool) "offsets must span the arcs" true
    (rejects ~off:[| 0; 1; 1 |] ~dst ~wgt);
  Alcotest.(check bool) "offsets must be ascending" true
    (rejects ~off:[| 0; 2; 1; 2 |] ~dst:[| 1; 2 |] ~wgt);
  Alcotest.(check bool) "dst/wgt lengths must match" true
    (rejects ~off:[| 0; 1; 2 |] ~dst ~wgt:[| 1.0 |]);
  Alcotest.(check bool) "offset array must not be empty" true
    (rejects ~off:[||] ~dst:[||] ~wgt:[||]);
  Alcotest.(check bool) "arc targets must be vertices" true
    (rejects ~off:[| 0; 1; 2 |] ~dst:[| 1; 2 |] ~wgt);
  Alcotest.(check bool) "well-formed accepted" true
    (not (rejects ~off:[| 0; 1; 2 |] ~dst ~wgt))

let () =
  Alcotest.run "csr"
    [
      ( "structure",
        [
          prop_roundtrip;
          prop_adjacency_sorted;
          prop_mem_and_weight;
          prop_iter_edges_each_once;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "total weight" `Quick test_total_weight;
        ] );
      ( "algorithms",
        [ prop_dijkstra_agrees; prop_mst_agrees; prop_components_agree ] );
      ( "adopt",
        [
          prop_of_arrays_sorts;
          Alcotest.test_case "of_arrays rejects malformed" `Quick
            test_of_arrays_rejects_malformed;
        ] );
    ]
