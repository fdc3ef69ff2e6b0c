module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
module Query_select = Topo.Query_select
module Cluster_cover = Topo.Cluster_cover
open Test_helpers

let params = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:2 ()

(* A mid-algorithm snapshot: partial spanner = greedy over the short
   half of the edges; current bin = a band of longer edges. The spanner
   is frozen into the CSR form that [select] consumes. *)
let phase_snapshot ~seed ~n =
  let model = connected_model ~seed ~n ~dim:2 ~alpha:0.8 in
  let edges =
    List.sort
      (fun (a : Wgraph.edge) b -> compare a.w b.w)
      (Wgraph.edges model.Ubg.Model.graph)
  in
  let m = List.length edges in
  let short = List.filteri (fun i _ -> i < m / 2) edges in
  let w_prev =
    match List.nth_opt edges ((m / 2) - 1) with
    | Some e -> e.w
    | None -> 0.1
  in
  let spanner = Wgraph.create (Ubg.Model.n model) in
  List.iter
    (fun (e : Wgraph.edge) ->
      let budget = params.Topo.Params.t *. e.w in
      if Graph.Dijkstra.distance_upto spanner e.u e.v ~bound:budget > budget
      then Wgraph.add_edge spanner e.u e.v e.w)
    short;
  let bin =
    Array.of_list
      (List.filter
         (fun (e : Wgraph.edge) ->
           e.w > w_prev && e.w <= w_prev *. params.Topo.Params.r)
         edges)
  in
  let radius = params.Topo.Params.delta *. w_prev in
  let cover = Cluster_cover.compute spanner ~radius in
  (model, spanner, Csr.of_wgraph spanner, cover, bin)

let prop_one_query_per_cluster_pair =
  qtest ~count:25 "select: at most one query edge per cluster pair" seed_arb
    (fun seed ->
      let model, _, frozen, cover, bin = phase_snapshot ~seed ~n:50 in
      let sel =
        Query_select.select ~points:model.Ubg.Model.points ~spanner:frozen
          ~cover ~params bin
      in
      let pairs = Hashtbl.create 16 in
      Array.for_all
        (fun (e : Wgraph.edge) ->
          let a = cover.Cluster_cover.center_of.(e.u)
          and b = cover.Cluster_cover.center_of.(e.v) in
          let key = (min a b, max a b) in
          if Hashtbl.mem pairs key then false
          else begin
            Hashtbl.add pairs key ();
            true
          end)
        sel.Query_select.query_edges)

let prop_query_edges_are_candidates =
  qtest ~count:25 "select: query edges come from the bin and are uncovered"
    seed_arb (fun seed ->
      let model, _, frozen, cover, bin = phase_snapshot ~seed ~n:50 in
      let sel =
        Query_select.select ~points:model.Ubg.Model.points ~spanner:frozen
          ~cover ~params bin
      in
      let in_bin (e : Wgraph.edge) =
        Array.exists
          (fun (f : Wgraph.edge) -> f.u = e.u && f.v = e.v && f.w = e.w)
          bin
      in
      Array.for_all
        (fun (e : Wgraph.edge) ->
          in_bin e
          && not
               (Query_select.is_covered ~points:model.Ubg.Model.points
                  ~spanner:frozen ~params ~u:e.u ~v:e.v ~len:e.w))
        sel.Query_select.query_edges)

let prop_counters_consistent =
  qtest ~count:25 "select: counters add up" seed_arb (fun seed ->
      let model, _, frozen, cover, bin = phase_snapshot ~seed ~n:50 in
      let sel =
        Query_select.select ~points:model.Ubg.Model.points ~spanner:frozen
          ~cover ~params bin
      in
      sel.Query_select.n_bin_edges = Array.length bin
      && sel.Query_select.n_covered + sel.Query_select.n_candidates
         = sel.Query_select.n_bin_edges
      && Array.length sel.Query_select.query_edges
         <= sel.Query_select.n_candidates)

(* Lemma 3 semantics (Figure 1): a covered edge already has a t-spanner
   path through its witness in the *final* greedy spanner, provided the
   witness edge and the short witness-to-endpoint edge are handled.
   Here we verify the geometric precondition the test implements — the
   witness is recovered on the hashtable builder, cross-checking the
   CSR adjacency the covered test walked. *)
let prop_covered_witness_geometry =
  qtest ~count:25 "select: covered edges expose a Lemma 3 witness" seed_arb
    (fun seed ->
      let model, spanner, frozen, _, bin = phase_snapshot ~seed ~n:50 in
      Array.for_all
        (fun (e : Wgraph.edge) ->
          let covered =
            Query_select.is_covered ~points:model.Ubg.Model.points
              ~spanner:frozen ~params ~u:e.u ~v:e.v ~len:e.w
          in
          if not covered then true
          else begin
            (* Recover a witness explicitly. *)
            let witness_at pivot far =
              Wgraph.fold_neighbors spanner pivot
                (fun z _ acc ->
                  acc
                  || (z <> far
                     && Ubg.Model.distance model z far
                        <= params.Topo.Params.alpha
                     && Ubg.Model.distance model pivot z <= e.w
                     && Ubg.Model.angle model ~apex:pivot far z
                        <= params.Topo.Params.theta))
                false
            in
            witness_at e.u e.v || witness_at e.v e.u
          end)
        bin)

let test_select_empty_bin () =
  let model, _, frozen, cover, _ = phase_snapshot ~seed:3 ~n:30 in
  let sel =
    Query_select.select ~points:model.Ubg.Model.points ~spanner:frozen ~cover
      ~params [||]
  in
  Alcotest.(check int) "no queries" 0
    (Array.length sel.Query_select.query_edges);
  Alcotest.(check int) "no bin edges" 0 sel.Query_select.n_bin_edges;
  Alcotest.(check int) "qpc zero" 0 sel.Query_select.max_queries_per_cluster

let prop_max_queries_per_cluster_counts =
  qtest ~count:25 "select: per-cluster maximum matches the selection"
    seed_arb (fun seed ->
      let model, _, frozen, cover, bin = phase_snapshot ~seed ~n:50 in
      let sel =
        Query_select.select ~points:model.Ubg.Model.points ~spanner:frozen
          ~cover ~params bin
      in
      let per = Hashtbl.create 16 in
      let bump c =
        Hashtbl.replace per c (1 + Option.value ~default:0 (Hashtbl.find_opt per c))
      in
      Array.iter
        (fun (e : Wgraph.edge) ->
          bump cover.Cluster_cover.center_of.(e.u);
          bump cover.Cluster_cover.center_of.(e.v))
        sel.Query_select.query_edges;
      let m = Hashtbl.fold (fun _ v acc -> max v acc) per 0 in
      m = sel.Query_select.max_queries_per_cluster)

let () =
  Alcotest.run "query_select"
    [
      ( "selection",
        [
          prop_one_query_per_cluster_pair;
          prop_query_edges_are_candidates;
          prop_counters_consistent;
          prop_covered_witness_geometry;
          prop_max_queries_per_cluster_counts;
          Alcotest.test_case "empty bin" `Quick test_select_empty_bin;
        ] );
    ]
