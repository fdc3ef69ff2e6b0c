module Wgraph = Graph.Wgraph
module Relaxed_greedy = Topo.Relaxed_greedy
module Verify = Topo.Verify
module Model = Ubg.Model
open Test_helpers

(* The three headline properties (Theorems 10, 11, 13) on random
   α-UBGs across dimensions, alphas, and stretch targets. *)

let random_case seed =
  let st = rand_state seed in
  let dim = 2 + Random.State.int st 2 in
  let n = 20 + Random.State.int st 60 in
  let alpha = [| 0.6; 0.8; 1.0 |].(Random.State.int st 3) in
  let eps = [| 0.3; 0.7; 1.5 |].(Random.State.int st 3) in
  let model = random_model ~seed ~n ~dim ~alpha in
  (model, eps)

let prop_t_spanner =
  qtest ~count:25 "relaxed: edge stretch within t (Theorem 10)" seed_arb
    (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      Verify.is_t_spanner ~base:model.Model.graph
        ~spanner:r.Relaxed_greedy.spanner ~t:(1.0 +. eps))

let prop_exact_stretch =
  qtest ~count:10 "relaxed: all-pairs stretch within t" seed_arb (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      Verify.exact_stretch ~base:model.Model.graph
        ~spanner:r.Relaxed_greedy.spanner
      <= 1.0 +. eps +. 1e-9)

let prop_subgraph =
  qtest ~count:25 "relaxed: spanner is a subgraph of the input" seed_arb
    (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      let ok = ref true in
      Wgraph.iter_edges r.Relaxed_greedy.spanner (fun u v w ->
          match Wgraph.weight model.Model.graph u v with
          | Some w' when close ~eps:1e-12 w w' -> ()
          | Some _ | None -> ok := false);
      !ok)

let prop_connectivity_preserved =
  qtest ~count:25 "relaxed: component structure preserved" seed_arb
    (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      Graph.Components.labels model.Model.graph
      = Graph.Components.labels r.Relaxed_greedy.spanner)

let prop_degree_bounded =
  (* Theorem 11 promises O(1); empirically stays modest in d <= 3. *)
  qtest ~count:25 "relaxed: degree stays bounded (Theorem 11)" seed_arb
    (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      Wgraph.max_degree r.Relaxed_greedy.spanner <= 30)

let prop_lightweight =
  (* Theorem 13 promises O(w(MST)); empirically small constants. *)
  qtest ~count:25 "relaxed: weight O(MST) (Theorem 13)" seed_arb (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      let mst = Graph.Mst.weight model.Model.graph in
      mst = 0.0
      || Wgraph.total_weight r.Relaxed_greedy.spanner <= 15.0 *. mst)

let prop_deterministic =
  qtest ~count:10 "relaxed: deterministic" seed_arb (fun seed ->
      let model, eps = random_case seed in
      let r1 = Relaxed_greedy.build_eps ~eps model
      and r2 = Relaxed_greedy.build_eps ~eps model in
      List.sort compare (Wgraph.edges r1.Relaxed_greedy.spanner)
      = List.sort compare (Wgraph.edges r2.Relaxed_greedy.spanner))

let prop_stats_consistent =
  qtest ~count:15 "relaxed: phase stats reconcile with the output" seed_arb
    (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      let total_added = Relaxed_greedy.total_added r.Relaxed_greedy.stats in
      (* Every edge of the spanner was added exactly once (phase-0
         additions are counted in the phase-0 record). *)
      total_added = Wgraph.n_edges r.Relaxed_greedy.spanner
      && List.for_all
           (fun (s : Relaxed_greedy.phase_stats) ->
             s.n_covered + s.n_candidates = s.n_bin_edges
             && s.n_added <= s.n_query
             && s.n_removed >= 0)
           r.Relaxed_greedy.stats)

let prop_verify_check_passes =
  qtest ~count:15 "relaxed: Verify.check certifies the build" seed_arb
    (fun seed ->
      let model, eps = random_case seed in
      let r = Relaxed_greedy.build_eps ~eps model in
      let stretch, degree, ratio = Verify.check r ~model in
      stretch <= 1.0 +. eps +. 1e-9 && degree >= 0 && ratio >= 0.99)

(* Energy-metric extension (Section 1.6.2): stretch holds in the energy
   weight space. *)
let prop_energy_spanner =
  qtest ~count:12 "relaxed: energy-metric build spans in energy space"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let model = random_model ~seed ~n:40 ~dim:2 ~alpha:0.8 in
      let gamma = 1.0 +. Random.State.float st 2.0 in
      let metric = Geometry.Metric.Energy { c = 1.0; gamma } in
      let eps = 0.7 in
      let r = Relaxed_greedy.build_eps ~metric ~eps model in
      let base_energy = Model.reweight model metric in
      Verify.is_t_spanner ~base:base_energy ~spanner:r.Relaxed_greedy.spanner
        ~t:(1.0 +. eps))

let prop_phase_invariant =
  (* The Theorem 10 induction, checked live through the observer hook:
     after phase i completes, every input edge no longer than W_i is
     already t-spanned by the partial spanner G'_i. *)
  qtest ~count:8 "relaxed: per-phase spanning invariant (Theorem 10 induction)"
    seed_arb (fun seed ->
      let model = random_model ~seed ~n:35 ~dim:2 ~alpha:0.8 in
      let params = Topo.Params.of_epsilon ~eps:0.6 ~alpha:0.8 ~dim:2 in
      let bins = Topo.Bins.make ~params ~n:(Model.n model) in
      let ok = ref true in
      let observer ~phase ~spanner =
        let w_i = Topo.Bins.w bins phase in
        Wgraph.iter_edges model.Model.graph (fun u v w ->
            if w <= w_i then begin
              let budget = params.Topo.Params.t *. w in
              if
                Graph.Dijkstra.distance_upto spanner u v ~bound:budget
                > budget +. 1e-9
              then ok := false
            end)
      in
      ignore (Relaxed_greedy.build ~observer ~params model);
      !ok)

let prop_clustered_instances =
  (* Multi-scale point sets exercise nontrivial cluster covers. *)
  qtest ~count:10 "relaxed: holds on clustered placements" seed_arb
    (fun seed ->
      let model =
        Ubg.Generator.generate ~seed ~dim:2 ~n:60 ~alpha:0.7
          (Ubg.Generator.Clusters { blobs = 4; spread = 0.3; side = 2.5 })
      in
      let r = Relaxed_greedy.build_eps ~eps:0.5 model in
      Verify.is_t_spanner ~base:model.Model.graph
        ~spanner:r.Relaxed_greedy.spanner ~t:1.5)

let prop_gray_zone_instances =
  qtest ~count:10 "relaxed: holds under adversarial gray zones" seed_arb
    (fun seed ->
      let side =
        Ubg.Generator.side_for_expected_degree ~dim:2 ~n:50 ~alpha:0.6
          ~degree:10.0
      in
      let model =
        Ubg.Generator.generate ~seed ~dim:2 ~n:50 ~alpha:0.6
          ~gray:(Ubg.Gray_zone.Bernoulli { p = 0.4; seed })
          (Ubg.Generator.Uniform { side })
      in
      let r = Relaxed_greedy.build_eps ~eps:0.4 model in
      Verify.is_t_spanner ~base:model.Model.graph
        ~spanner:r.Relaxed_greedy.spanner ~t:1.4)

let test_single_component_clique () =
  (* All nodes within alpha/n of each other: everything happens in
     phase 0. *)
  let pts =
    Array.init 5 (fun i ->
        Geometry.Point.make2 (float_of_int i *. 1e-4) 0.0)
  in
  let model = Ubg.Generator.instance ~alpha:0.8 pts in
  let r = Relaxed_greedy.build_eps ~eps:0.5 model in
  Alcotest.(check bool) "is spanner" true
    (Verify.is_t_spanner ~base:model.Model.graph
       ~spanner:r.Relaxed_greedy.spanner ~t:1.5);
  (match r.Relaxed_greedy.stats with
  | s0 :: _ -> Alcotest.(check bool) "phase 0 did work" true (s0.n_added > 0)
  | [] -> Alcotest.fail "no stats")

let test_mismatched_params_rejected () =
  let model = random_model ~seed:1 ~n:20 ~dim:2 ~alpha:0.8 in
  let params = Topo.Params.make ~t:1.5 ~alpha:0.5 ~dim:2 () in
  Alcotest.(check bool) "alpha mismatch rejected" true
    (try
       ignore (Relaxed_greedy.build ~params model);
       false
     with Invalid_argument _ -> true);
  let params3 = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:3 () in
  Alcotest.(check bool) "dim mismatch rejected" true
    (try
       ignore (Relaxed_greedy.build ~params:params3 model);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "relaxed_greedy"
    [
      ( "theorems",
        [
          prop_t_spanner;
          prop_exact_stretch;
          prop_degree_bounded;
          prop_lightweight;
          prop_phase_invariant;
        ] );
      ( "structure",
        [
          prop_subgraph;
          prop_connectivity_preserved;
          prop_deterministic;
          prop_stats_consistent;
          prop_verify_check_passes;
        ] );
      ( "extensions",
        [
          prop_energy_spanner;
          prop_clustered_instances;
          prop_gray_zone_instances;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "all-clique instance" `Quick
            test_single_component_clique;
          Alcotest.test_case "mismatched params" `Quick
            test_mismatched_params_rejected;
        ] );
    ]
