module Wgraph = Graph.Wgraph
module Cluster_cover = Topo.Cluster_cover
module Cluster_graph = Topo.Cluster_graph
open Test_helpers

(* ------------------------------------------------------------------ *)
(* Cluster covers (Section 2.2.1)                                     *)
(* ------------------------------------------------------------------ *)

let prop_cover_valid =
  qtest ~count:60 "cover: compute yields a valid cover" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      let radius = Random.State.float st 2.0 in
      let cover = Cluster_cover.compute g ~radius in
      Cluster_cover.is_valid g cover)

let prop_cover_radius_zero_singletons =
  qtest "cover: zero radius makes singleton clusters" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 30 in
      let g = random_graph ~st ~n ~extra_edges:5 in
      let cover = Cluster_cover.compute g ~radius:0.0 in
      Cluster_cover.n_clusters ~c:cover = n)

let prop_cover_huge_radius_per_component =
  qtest "cover: huge radius gives one cluster per component" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 30 in
      let g = random_graph ~st ~n ~extra_edges:5 in
      (* Cut the tree once in a while to create components. *)
      (match Wgraph.edges g with
      | e :: _ when Random.State.bool st -> ignore (Wgraph.remove_edge g e.u e.v)
      | _ -> ());
      let cover = Cluster_cover.compute g ~radius:1e9 in
      Cluster_cover.n_clusters ~c:cover = Graph.Components.count g)

let prop_cover_members_partition =
  qtest "cover: members partition the vertex set" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 20) in
      let cover = Cluster_cover.compute g ~radius:(Random.State.float st 1.0) in
      let seen = Array.make n 0 in
      Hashtbl.iter
        (fun _ members -> List.iter (fun v -> seen.(v) <- seen.(v) + 1) members)
        cover.Cluster_cover.members;
      Array.for_all (fun c -> c = 1) seen)

let prop_of_centers_with_mis =
  (* MIS of the coverage graph (as the distributed algorithm elects
     centers) always dominates, so of_centers succeeds and is valid. *)
  qtest ~count:40 "cover: of_centers accepts MIS centers" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 30 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 30) in
      let radius = Random.State.float st 1.5 in
      (* Coverage graph: edge iff sp <= radius. *)
      let j = Wgraph.create n in
      for u = 0 to n - 1 do
        List.iter
          (fun (v, d) -> if v > u && d > 0.0 then Wgraph.add_edge j u v d)
          (Graph.Dijkstra.within g u ~bound:radius)
      done;
      let mis = Distrib.Mis.greedy j in
      let centers = Distrib.Mis.members mis in
      let cover = Cluster_cover.of_centers g ~radius ~centers in
      Cluster_cover.is_valid g cover)

(* The oracle's doubling loop reads only the centers: with isolated
   vertices left out and no cap hit, they are the full greedy's, in
   creation order; past the cap the scan gives up. *)
let prop_limited_centers =
  qtest ~count:60
    "cover: compute_csr_limited = compute_csr centers minus isolated" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      (* Isolate a few vertices, as dead slots in a snapshot are. *)
      for _ = 1 to Random.State.int st 4 do
        let v = Random.State.int st n in
        List.iter
          (fun (x, _) -> ignore (Wgraph.remove_edge g v x))
          (Wgraph.neighbors g v)
      done;
      let j = Graph.Csr.of_wgraph g in
      let radius = Random.State.float st 2.0 in
      let expected =
        List.filter
          (fun c -> Wgraph.degree g c > 0)
          (Array.to_list (Cluster_cover.compute_csr j ~radius).centers)
      in
      let max_clusters = 1 + Random.State.int st (List.length expected + 2) in
      match Cluster_cover.compute_csr_limited j ~radius ~max_clusters with
      | Some centers ->
          List.length expected <= max_clusters
          && Array.to_list centers = expected
      | None -> List.length expected > max_clusters)

let test_of_centers_rejects_nondominating () =
  let g = Wgraph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  Alcotest.(check bool) "uncovered vertex detected" true
    (try
       ignore (Cluster_cover.of_centers g ~radius:0.5 ~centers:[ 0 ]);
       false
     with Invalid_argument _ -> true)

let test_cover_dist_recorded () =
  let g = Wgraph.of_edges ~n:4 [ (0, 1, 0.4); (1, 2, 0.4); (2, 3, 0.4) ] in
  let cover = Cluster_cover.compute g ~radius:0.5 in
  (* Vertex 0 claims 1; vertex 2 starts a new cluster claiming 3. *)
  Alcotest.(check int) "clusters" 2 (Cluster_cover.n_clusters ~c:cover);
  check_float "dist of member" 0.4 cover.Cluster_cover.dist_to_center.(1);
  Alcotest.(check int) "center of 3" 2 cover.Cluster_cover.center_of.(3)

(* ------------------------------------------------------------------ *)
(* Cluster graphs (Sections 2.2.3-2.2.4, Figures 2)                   *)
(* ------------------------------------------------------------------ *)

(* A realistic phase context honoring the algorithm's invariant that
   G'_{i-1} only holds edges of length <= W_{i-1}: greedy spanner over
   the short edges only, cover radius delta * W_{i-1}. *)
let phase_context ~seed ~n =
  let model = connected_model ~seed ~n ~dim:2 ~alpha:0.8 in
  let w_prev = 0.25 in
  let short = Wgraph.create (Ubg.Model.n model) in
  Wgraph.iter_edges model.Ubg.Model.graph (fun u v w ->
      if w <= w_prev then Wgraph.add_edge short u v w);
  let spanner = Topo.Seq_greedy.spanner short ~t:1.5 in
  let delta = 0.04 in
  let cover = Cluster_cover.compute spanner ~radius:(delta *. w_prev) in
  (model, spanner, cover, w_prev)

let prop_cluster_graph_weights_are_sp =
  qtest ~count:20 "cluster graph: edge weights are true sp distances"
    seed_arb (fun seed ->
      let _, spanner, cover, w_prev = phase_context ~seed ~n:40 in
      let h = Cluster_graph.build ~spanner ~cover ~w_prev in
      let ok = ref true in
      Wgraph.iter_edges (Cluster_graph.to_wgraph h) (fun a b w ->
          if not (close ~eps:1e-9 (Graph.Dijkstra.distance spanner a b) w) then
            ok := false);
      !ok)

let prop_cluster_graph_lemma5 =
  qtest ~count:20 "cluster graph: Lemma 5 weight bound holds" seed_arb
    (fun seed ->
      let _, spanner, cover, w_prev = phase_context ~seed ~n:40 in
      let h = Cluster_graph.build ~spanner ~cover ~w_prev in
      let delta = cover.Cluster_cover.radius /. w_prev in
      let bound = ((2.0 *. delta) +. 1.0) *. w_prev in
      let ok = ref true in
      Wgraph.iter_edges (Cluster_graph.to_wgraph h) (fun _ _ w ->
          if w > bound +. 1e-9 then ok := false);
      !ok)

let prop_cluster_graph_dominates_sp =
  (* Lemma 7 lower half: sp_H >= sp_G' for any vertex pair (H's edges
     are genuine distances, so paths in H correspond to walks in G'). *)
  qtest ~count:15 "cluster graph: sp_H dominates sp_G'" seed_arb (fun seed ->
      let st = rand_state seed in
      let _, spanner, cover, w_prev = phase_context ~seed ~n:40 in
      let h = Cluster_graph.build ~spanner ~cover ~w_prev in
      let hg = Cluster_graph.to_wgraph h in
      let n = Wgraph.n_vertices spanner in
      let ok = ref true in
      for _ = 1 to 20 do
        let x = Random.State.int st n and y = Random.State.int st n in
        let dh = Graph.Dijkstra.distance hg x y
        and dg = Graph.Dijkstra.distance spanner x y in
        if dh < dg -. 1e-9 then ok := false
      done;
      !ok)

let prop_cluster_graph_lemma7_upper =
  (* Lemma 7 upper half: for close pairs, sp_H stays within
     (1+6delta)/(1-2delta) of sp_G'. We test it on actual spanner
     edges (always close) rather than arbitrary pairs. *)
  qtest ~count:15 "cluster graph: Lemma 7 approximation factor" seed_arb
    (fun seed ->
      let _, spanner, cover, w_prev = phase_context ~seed ~n:40 in
      let h = Cluster_graph.build ~spanner ~cover ~w_prev in
      let hg = Cluster_graph.to_wgraph h in
      let delta = cover.Cluster_cover.radius /. w_prev in
      let factor = (1.0 +. (6.0 *. delta)) /. (1.0 -. (2.0 *. delta)) in
      let ok = ref true in
      Wgraph.iter_edges spanner (fun x y _ ->
          let dg = Graph.Dijkstra.distance spanner x y in
          (* Lemma 7 is stated for bin-i edges, whose length exceeds
             W_{i-1}; short pairs pay the fixed center-detour overhead
             and legitimately exceed the factor, so restrict to the
             lemma's regime. *)
          if dg > w_prev then begin
            let dh = Graph.Dijkstra.distance hg x y in
            if dh > (factor *. dg) +. 1e-9 then ok := false
          end);
      !ok)

let prop_query_consistent_with_sp =
  (* query answers `Short_path d only when an actual H-path of length
     d <= t * len exists; `No_path only when the true sp_H exceeds the
     budget (given the Lemma 8 hop bound). *)
  qtest ~count:15 "cluster graph: query agrees with exact sp_H" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let _, spanner, cover, w_prev = phase_context ~seed ~n:40 in
      let h = Cluster_graph.build ~spanner ~cover ~w_prev in
      let hg = Cluster_graph.to_wgraph h in
      let params = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:2 () in
      let n = Wgraph.n_vertices spanner in
      let ok = ref true in
      for _ = 1 to 20 do
        let x = Random.State.int st n and y = Random.State.int st n in
        if x <> y then begin
          let len = w_prev *. (1.0 +. Random.State.float st 0.3) in
          let exact = Graph.Dijkstra.distance hg x y in
          match Cluster_graph.query h ~params ~x ~y ~len with
          | `Short_path d ->
              if d > (params.Topo.Params.t *. len) +. 1e-9 then ok := false;
              if d < exact -. 1e-9 then ok := false
          | `No_path ->
              (* The exact distance must genuinely exceed the budget:
                 Lemma 8 guarantees the hop bound finds any qualifying
                 path. *)
              if exact <= params.Topo.Params.t *. len -. 1e-9 then ok := false
        end
      done;
      !ok)

(* H straight from the Section 2.2.3 definition, with none of the
   build's machinery: a star edge {a, x} weighted [dist_to_center x]
   for every member x of C_a, and a center pair {a, b}, a earlier in
   [cover.centers], weighted by an unbounded search from a, kept when
   0 < d <= W + 2r and either d <= W or a spanner edge crosses between
   C_a and C_b. *)
let reference_h ~spanner ~cover ~w_prev =
  let c = Graph.Csr.of_wgraph spanner in
  let n = Graph.Csr.n_vertices c in
  let center_of = cover.Cluster_cover.center_of in
  let h = Wgraph.create n in
  let inter_degree = Array.make n 0 in
  for x = 0 to n - 1 do
    let a = center_of.(x) in
    if a >= 0 && a <> x then
      Wgraph.add_edge h a x cover.Cluster_cover.dist_to_center.(x)
  done;
  let crosses a b =
    let hit = ref false in
    Graph.Csr.iter_edges c (fun u v _ ->
        let cu = center_of.(u) and cv = center_of.(v) in
        if (cu = a && cv = b) || (cu = b && cv = a) then hit := true);
    !hit
  in
  let reach = w_prev +. (2.0 *. cover.Cluster_cover.radius) +. 1e-12 in
  let centers = cover.Cluster_cover.centers in
  Array.iteri
    (fun i a ->
      let dist = Graph.Dijkstra.distances_csr c a in
      for j = i + 1 to Array.length centers - 1 do
        let b = centers.(j) in
        let d = dist.(b) in
        if d > 0.0 && d <= reach && (d <= w_prev +. 1e-12 || crosses a b)
        then begin
          Wgraph.add_edge h a b d;
          inter_degree.(a) <- inter_degree.(a) + 1;
          inter_degree.(b) <- inter_degree.(b) + 1
        end
      done)
    centers;
  (Graph.Csr.of_wgraph h, inter_degree)

let prop_matches_reference =
  (* On phase-shaped inputs and on arbitrary random graphs with
     arbitrary covers, the build must freeze exactly the reference
     snapshot (same arcs, bit-identical weights) and the same
     inter-degree profile. *)
  qtest ~count:25 "cluster graph: build equals the reference H" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let agree ~spanner ~cover ~w_prev =
        let h = Cluster_graph.build ~spanner ~cover ~w_prev in
        let hcsr, inter_degree = reference_h ~spanner ~cover ~w_prev in
        h.Cluster_graph.hcsr = hcsr
        && h.Cluster_graph.inter_degree = inter_degree
      in
      let _, spanner, cover, w_prev = phase_context ~seed ~n:40 in
      agree ~spanner ~cover ~w_prev
      &&
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      let w_prev = 0.2 +. Random.State.float st 2.0 in
      let radius = Random.State.float st w_prev in
      let cover = Cluster_cover.compute g ~radius in
      agree ~spanner:g ~cover ~w_prev)

let test_build_rejects_big_radius () =
  let g = Wgraph.of_edges ~n:2 [ (0, 1, 1.0) ] in
  let cover = Cluster_cover.compute g ~radius:2.0 in
  Alcotest.(check bool) "radius > W rejected" true
    (try
       ignore (Cluster_graph.build ~spanner:g ~cover ~w_prev:1.0);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "cluster"
    [
      ( "cover",
        [
          prop_cover_valid;
          prop_cover_radius_zero_singletons;
          prop_cover_huge_radius_per_component;
          prop_cover_members_partition;
          prop_of_centers_with_mis;
          prop_limited_centers;
          Alcotest.test_case "of_centers rejects non-dominating" `Quick
            test_of_centers_rejects_nondominating;
          Alcotest.test_case "distances recorded" `Quick test_cover_dist_recorded;
        ] );
      ( "cluster_graph",
        [
          prop_cluster_graph_weights_are_sp;
          prop_cluster_graph_lemma5;
          prop_cluster_graph_dominates_sp;
          prop_cluster_graph_lemma7_upper;
          prop_query_consistent_with_sp;
          prop_matches_reference;
          Alcotest.test_case "rejects oversized radius" `Quick
            test_build_rejects_big_radius;
        ] );
    ]
