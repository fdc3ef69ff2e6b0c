module Wgraph = Graph.Wgraph
module Redundant = Topo.Redundant
module Cluster_cover = Topo.Cluster_cover
module Cluster_graph = Topo.Cluster_graph
open Test_helpers

let params = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:2 ()

(* A phase context plus a batch of "newly added" edges drawn from the
   bin above W_{i-1}. *)
let phase_with_added ~seed ~n =
  let model = connected_model ~seed ~n ~dim:2 ~alpha:0.8 in
  let w_prev = 0.3 in
  let short = Wgraph.create (Ubg.Model.n model) in
  Wgraph.iter_edges model.Ubg.Model.graph (fun u v w ->
      if w <= w_prev then Wgraph.add_edge short u v w);
  let spanner = Topo.Seq_greedy.spanner short ~t:1.5 in
  let radius = params.Topo.Params.delta *. w_prev in
  let cover = Cluster_cover.compute spanner ~radius in
  let h = Cluster_graph.build ~spanner ~cover ~w_prev in
  let added =
    Array.of_list
      (List.filter
         (fun (e : Wgraph.edge) ->
           e.w > w_prev && e.w <= w_prev *. params.Topo.Params.r)
         (Wgraph.edges model.Ubg.Model.graph))
  in
  (h, added)

let prop_mutually_redundant_symmetric =
  qtest ~count:20 "redundant: relation is symmetric" seed_arb (fun seed ->
      let h, added = phase_with_added ~seed ~n:40 in
      Array.length added < 2
      ||
      let e1 = added.(0) and e2 = added.(1) in
      Redundant.mutually_redundant ~h ~params e1 e2
      = Redundant.mutually_redundant ~h ~params e2 e1)

let prop_filter_partitions =
  qtest ~count:20 "redundant: kept + removed = added" seed_arb (fun seed ->
      let h, added = phase_with_added ~seed ~n:40 in
      let r = Redundant.filter ~h ~params added in
      Array.length r.Redundant.kept + Array.length r.Redundant.removed
      = Array.length added)

let prop_filter_kept_is_mis =
  qtest ~count:20 "redundant: kept set is an MIS of the conflict graph"
    seed_arb (fun seed ->
      let h, added = phase_with_added ~seed ~n:40 in
      let r = Redundant.filter ~h ~params added in
      let jg = Redundant.conflict_graph ~h ~params added in
      let kept = Hashtbl.create 16 in
      Array.iter
        (fun (e : Wgraph.edge) -> Hashtbl.replace kept (e.u, e.v, e.w) ())
        r.Redundant.kept;
      let in_mis =
        Array.map (fun (e : Wgraph.edge) -> Hashtbl.mem kept (e.u, e.v, e.w)) added
      in
      Distrib.Mis.is_mis jg in_mis)

let prop_removed_have_surviving_partner =
  (* Theorem 10's safety argument: every removed edge keeps at least
     one mutually redundant partner in the spanner. *)
  qtest ~count:20 "redundant: removed edges keep a surviving partner"
    seed_arb (fun seed ->
      let h, added = phase_with_added ~seed ~n:40 in
      let r = Redundant.filter ~h ~params added in
      Array.for_all
        (fun removed ->
          Array.exists
            (fun kept -> Redundant.mutually_redundant ~h ~params removed kept)
            r.Redundant.kept)
        r.Redundant.removed)

let prop_no_conflicts_no_removal =
  qtest ~count:20 "redundant: nothing removed without conflicts" seed_arb
    (fun seed ->
      let h, added = phase_with_added ~seed ~n:40 in
      let r = Redundant.filter ~h ~params added in
      r.Redundant.n_conflict_edges > 0
      || Array.length r.Redundant.removed = 0)

(* d_J metric axioms (Lemma 20, Figures 5-6). *)
let prop_dj_metric_axioms =
  qtest ~count:20 "redundant: d_J is symmetric and triangular" seed_arb
    (fun seed ->
      let h, added = phase_with_added ~seed ~n:40 in
      let max_hops = 1000 and bound = infinity in
      let d = Redundant.d_j ~h ~max_hops ~bound in
      let eq x y = x = y || close ~eps:1e-9 x y in
      Array.length added < 3
      ||
      let a = added.(0) and b = added.(1) and c = added.(2) in
      let ok_sym = eq (d a b) (d b a) in
      let ok_tri = d a c <= d a b +. d b c +. 1e-9 in
      let ok_self = d a a = 0.0 in
      ok_sym && ok_tri && ok_self)

(* Crafted instance with a forced redundant pair: two parallel edges of
   equal length whose endpoints are joined by negligible-length paths.
   Both conditions hold, so the conflict graph must see the pair and
   the filter must drop exactly one. *)
let test_forced_redundant_pair () =
  let pts =
    [|
      Geometry.Point.make2 0.0 0.0; (* u *)
      Geometry.Point.make2 0.0 0.01; (* u' *)
      Geometry.Point.make2 0.5 0.0; (* v *)
      Geometry.Point.make2 0.5 0.01; (* v' *)
    |]
  in
  let spanner = Wgraph.create 4 in
  Wgraph.add_edge spanner 0 1 0.01;
  Wgraph.add_edge spanner 2 3 0.01;
  let w_prev = 0.3 in
  let cover =
    Cluster_cover.compute spanner ~radius:(params.Topo.Params.delta *. w_prev)
  in
  let h = Cluster_graph.build ~spanner ~cover ~w_prev in
  let e1 = { Wgraph.u = 0; v = 2; w = Geometry.Point.distance pts.(0) pts.(2) }
  and e2 = { Wgraph.u = 1; v = 3; w = Geometry.Point.distance pts.(1) pts.(3) } in
  Alcotest.(check bool) "pair detected" true
    (Redundant.mutually_redundant ~h ~params e1 e2);
  let r = Redundant.filter ~h ~params [| e1; e2 |] in
  Alcotest.(check int) "one kept" 1 (Array.length r.Redundant.kept);
  Alcotest.(check int) "one removed" 1 (Array.length r.Redundant.removed);
  Alcotest.(check int) "two conflict nodes" 2 r.Redundant.n_conflict_nodes;
  Alcotest.(check int) "one conflict edge" 1 r.Redundant.n_conflict_edges

(* Far-apart additions can never be redundant: condition (i) cannot
   bridge the gap within t1 |uv|. *)
let test_far_pair_not_redundant () =
  let spanner = Wgraph.create 4 in
  let w_prev = 0.3 in
  let cover =
    Cluster_cover.compute spanner ~radius:(params.Topo.Params.delta *. w_prev)
  in
  let h = Cluster_graph.build ~spanner ~cover ~w_prev in
  let e1 = { Wgraph.u = 0; v = 1; w = 0.35 }
  and e2 = { Wgraph.u = 2; v = 3; w = 0.35 } in
  (* Empty spanner: sp_H between distinct vertices is infinite. *)
  Alcotest.(check bool) "not redundant" false
    (Redundant.mutually_redundant ~h ~params e1 e2)

(* The conflict graph by the full pair scan: every pair (i, j), i < j,
   in index order. [Redundant.conflict_graph] tests only the later
   edges incident to one ball per edge and must build this graph edge
   for edge, with the same insertion order. *)
let pair_scan ?max_hops ~h ~params edges =
  let k = Array.length edges in
  let j_graph = Wgraph.create k in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if Redundant.mutually_redundant ?max_hops ~h ~params edges.(i) edges.(j)
      then Wgraph.add_edge j_graph i j 1.0
    done
  done;
  j_graph

(* Same edges, and every vertex's neighbours in the same order. *)
let same_j a b =
  Wgraph.n_vertices a = Wgraph.n_vertices b
  && Wgraph.n_edges a = Wgraph.n_edges b
  && List.for_all
       (fun i -> Wgraph.neighbors a i = Wgraph.neighbors b i)
       (List.init (Wgraph.n_vertices a) Fun.id)

let shares_endpoint (e1 : Wgraph.edge) (e2 : Wgraph.edge) =
  e1.u = e2.u || e1.u = e2.v || e1.v = e2.u || e1.v = e2.v

(* A phase at scale under [metric]: G'_{i-1} is the greedy spanner of
   the edges of length at most W_{i-1} = 0.3, weighted by the metric;
   the added edges are every edge of length in (W_{i-1}, 1.25 W_{i-1}],
   enough at n = 600 for a few hundred, many sharing an endpoint. The
   hop budget is the phase pipeline's, from the band's weight ratio. *)
let phase_at_scale ~metric ~seed =
  let model = connected_model ~seed ~n:600 ~dim:2 ~alpha:0.8 in
  let phi = Geometry.Metric.of_distance metric in
  let w_prev_len = 0.3 and w_len = 0.375 in
  let short = Wgraph.create (Ubg.Model.n model) in
  Wgraph.iter_edges model.Ubg.Model.graph (fun u v w ->
      if w <= w_prev_len then Wgraph.add_edge short u v (phi w));
  let spanner = Topo.Seq_greedy.spanner short ~t:params.Topo.Params.t in
  let w_prev = phi w_prev_len in
  let cover =
    Cluster_cover.compute spanner ~radius:(params.Topo.Params.delta *. w_prev)
  in
  let h = Cluster_graph.build ~spanner ~cover ~w_prev in
  let added =
    Array.of_list
      (List.filter_map
         (fun (e : Wgraph.edge) ->
           if e.w > w_prev_len && e.w <= w_len then
             Some { e with Wgraph.w = phi e.w }
           else None)
         (List.sort Wgraph.compare_edge (Wgraph.edges model.Ubg.Model.graph)))
  in
  let max_hops =
    2
    + int_of_float
        (ceil
           (params.Topo.Params.t *. (phi w_len /. w_prev)
           /. params.Topo.Params.delta))
  in
  (h, added, max_hops)

let test_j_matches_pair_scan metric () =
  let conflicts = ref 0 and shared = ref 0 in
  List.iter
    (fun seed ->
      let h, added, max_hops = phase_at_scale ~metric ~seed in
      Alcotest.(check bool) "at least 100 added edges" true
        (Array.length added >= 100);
      let reference = pair_scan ~max_hops ~h ~params added in
      let j_graph = Redundant.conflict_graph ~max_hops ~h ~params added in
      Alcotest.(check bool) "J equals the pair scan" true
        (same_j j_graph reference);
      conflicts := !conflicts + Wgraph.n_edges reference;
      Wgraph.iter_edges reference (fun i j _ ->
          if shares_endpoint added.(i) added.(j) then incr shared))
    [ 1; 2 ];
  Alcotest.(check bool) "fixtures hold conflicts" true (!conflicts > 0);
  Alcotest.(check bool) "some conflict shares an endpoint" true (!shared > 0)

(* A conflict exactly at the ball's bound. [e1 = {a, v}] and
   [e2 = {b, v}] share [v] and both weigh [w = w_min]; H joins [a] and
   [b] by one edge of weight [d = t1 w - w], exact by Sterbenz's lemma
   because [w <= t1 w <= 2 w]. Conditions (i) and (ii) then hold with
   equality, and [b] lies at exactly the bound [t1 w1 - w_min] of the
   ball from [a]. A heavier third edge, far from both, raises the
   largest added weight, so a ball bounded by it would miss [b]. *)
let test_conflict_at_ball_bound () =
  let t1 = params.Topo.Params.t1 in
  let w = 0.35 in
  let d = (t1 *. w) -. w in
  Alcotest.(check bool) "d + w = t1 w exactly" true (d +. w = t1 *. w);
  let a = 0 and b = 1 and v = 2 in
  let spanner = Wgraph.create 6 in
  Wgraph.add_edge spanner a b d;
  let w_prev = 0.3 in
  let cover =
    Cluster_cover.compute spanner ~radius:(params.Topo.Params.delta *. w_prev)
  in
  let h = Cluster_graph.build ~spanner ~cover ~w_prev in
  let added =
    [|
      { Wgraph.u = a; v; w }; { Wgraph.u = b; v; w };
      { Wgraph.u = 3; v = 4; w = 0.4 };
    |]
  in
  let j_graph = Redundant.conflict_graph ~h ~params added in
  Alcotest.(check bool) "pair at the bound detected" true
    (Wgraph.mem_edge j_graph 0 1);
  Alcotest.(check bool) "J equals the pair scan" true
    (same_j j_graph (pair_scan ~h ~params added))

(* A clique of conflicts: [k] added edges from the hub [v] to the
   vertices of a short spanner chain, all of one weight, so every pair
   is mutually redundant. Each J vertex then has more neighbours than
   its adjacency table's initial buckets, so testing candidates in any
   order but ascending index would change some vertex's neighbour
   order. *)
let test_conflict_clique_order () =
  let k = 24 in
  let v = k in
  let spanner = Wgraph.create (k + 1) in
  for a = 1 to k - 1 do
    Wgraph.add_edge spanner (a - 1) a 0.001
  done;
  let w_prev = 0.3 in
  let cover =
    Cluster_cover.compute spanner ~radius:(params.Topo.Params.delta *. w_prev)
  in
  let h = Cluster_graph.build ~spanner ~cover ~w_prev in
  let added = Array.init k (fun a -> { Wgraph.u = a; v; w = 0.35 }) in
  let j_graph = Redundant.conflict_graph ~h ~params added in
  Alcotest.(check int) "J is a clique" (k * (k - 1) / 2)
    (Wgraph.n_edges j_graph);
  Alcotest.(check bool) "J equals the pair scan" true
    (same_j j_graph (pair_scan ~h ~params added))

let () =
  Alcotest.run "redundant"
    [
      ( "relation",
        [
          prop_mutually_redundant_symmetric;
          prop_dj_metric_axioms;
          Alcotest.test_case "forced pair" `Quick test_forced_redundant_pair;
          Alcotest.test_case "far pair" `Quick test_far_pair_not_redundant;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "J equals the pair scan (Euclidean)" `Quick
            (test_j_matches_pair_scan Geometry.Metric.Euclidean);
          Alcotest.test_case "J equals the pair scan (Energy)" `Quick
            (test_j_matches_pair_scan
               (Geometry.Metric.Energy { c = 1.0; gamma = 2.0 }));
          Alcotest.test_case "conflict at the ball's bound" `Quick
            test_conflict_at_ball_bound;
          Alcotest.test_case "clique keeps the pair scan's order" `Quick
            test_conflict_clique_order;
        ] );
      ( "filter",
        [
          prop_filter_partitions;
          prop_filter_kept_is_mis;
          prop_removed_have_surviving_partner;
          prop_no_conflicts_no_removal;
        ] );
    ]
