module Wgraph = Graph.Wgraph
module Point = Geometry.Point
module Model = Ubg.Model
module Cone_graphs = Baselines.Cone_graphs
module Proximity = Baselines.Proximity_graphs
module Lmst = Baselines.Lmst
module Xtc = Baselines.Xtc
module Routing = Baselines.Routing
open Test_helpers

(* All baselines run on UDGs (alpha = 1, keep-all) where their classical
   guarantees apply, plus generic subgraph checks on arbitrary UBGs. *)
let udg ~seed ~n =
  let side = Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha:1.0 ~degree:9.0 in
  Ubg.Generator.connected ~seed ~dim:2 ~n ~alpha:1.0
    (Ubg.Generator.Uniform { side })

let is_subgraph ~base g =
  let ok = ref true in
  Wgraph.iter_edges g (fun u v w ->
      match Wgraph.weight base u v with
      | Some w' when close ~eps:1e-12 w w' -> ()
      | Some _ | None -> ok := false);
  !ok

let prop_all_subgraphs =
  qtest ~count:15 "baselines: every topology is a subgraph of the input"
    seed_arb (fun seed ->
      let model = random_model ~seed ~n:40 ~dim:2 ~alpha:0.7 in
      let base = model.Model.graph in
      List.for_all
        (fun g -> is_subgraph ~base g)
        [
          Cone_graphs.yao model ~cones:8;
          Cone_graphs.theta model ~cones:8;
          Proximity.gabriel model;
          Proximity.rng model;
          Lmst.build model;
          Xtc.build model;
        ])

(* ------------------------------------------------------------------ *)
(* Yao / Theta                                                        *)
(* ------------------------------------------------------------------ *)

let prop_yao_connected_on_udg =
  qtest ~count:15 "yao: preserves connectivity on a UDG (k >= 6)" seed_arb
    (fun seed ->
      let model = udg ~seed ~n:50 in
      Graph.Components.is_connected (Cone_graphs.yao model ~cones:8))

let prop_yao_keeps_nearest_neighbor =
  qtest ~count:15 "yao: nearest neighbor edge always survives" seed_arb
    (fun seed ->
      let model = udg ~seed ~n:40 in
      let g = model.Model.graph in
      let y = Cone_graphs.yao model ~cones:8 in
      let ok = ref true in
      for u = 0 to Model.n model - 1 do
        match
          Wgraph.fold_neighbors g u
            (fun v w acc ->
              match acc with
              | Some (_, w') when w' <= w -> acc
              | Some _ | None -> Some (v, w))
            None
        with
        | Some (v, _) -> if not (Wgraph.mem_edge y u v) then ok := false
        | None -> ()
      done;
      !ok)

let prop_theta_connected_on_udg =
  qtest ~count:15 "theta: preserves connectivity on a UDG" seed_arb
    (fun seed ->
      let model = udg ~seed ~n:50 in
      Graph.Components.is_connected (Cone_graphs.theta model ~cones:8))

let prop_yao_sparse =
  qtest ~count:15 "yao: linear size" seed_arb (fun seed ->
      let model = udg ~seed ~n:60 in
      let y = Cone_graphs.yao model ~cones:8 in
      Wgraph.n_edges y <= 8 * Model.n model)

let test_yao_3d () =
  let side = Ubg.Generator.side_for_expected_degree ~dim:3 ~n:40 ~alpha:1.0 ~degree:10.0 in
  let model =
    Ubg.Generator.connected ~seed:5 ~dim:3 ~n:40 ~alpha:1.0
      (Ubg.Generator.Uniform { side })
  in
  let y = Cone_graphs.yao_by_angle model ~angle:0.6 in
  Alcotest.(check bool) "3-d yao connected" true (Graph.Components.is_connected y)

(* ------------------------------------------------------------------ *)
(* Gabriel / RNG                                                      *)
(* ------------------------------------------------------------------ *)

(* Brute-force witness scans over every node, with the textbook
   predicates: Gabriel looks inside the ball with diameter uv, RNG
   inside the lune max(|uz|, |vz|) < |uv|. *)
let gabriel_blocks pu pv _ pz =
  Point.sq_distance pu pz +. Point.sq_distance pv pz
  < Point.sq_distance pu pv -. 1e-15

let rng_blocks pu pv w pz =
  Float.max (Point.distance pu pz) (Point.distance pv pz) < w -. 1e-12

let brute_kept ~blocks model u v w =
  let pts = model.Model.points in
  not
    (List.exists
       (fun z -> z <> u && z <> v && blocks pts.(u) pts.(v) w pts.(z))
       (List.init (Model.n model) Fun.id))

let prop_proximity_matches_brute_force =
  qtest ~count:15
    "gabriel/rng: witness filter equals brute force in 2-D and 3-D" seed_arb
    (fun seed ->
      List.for_all
        (fun dim ->
          let model = random_model ~seed ~n:40 ~dim ~alpha:0.7 in
          List.for_all
            (fun (filter, blocks) ->
              let g = filter model in
              let ok = ref true and kept = ref 0 in
              Wgraph.iter_edges model.Model.graph (fun u v w ->
                  let expect = brute_kept ~blocks model u v w in
                  if expect then incr kept;
                  if Wgraph.mem_edge g u v <> expect then ok := false);
              !ok && Wgraph.n_edges g = !kept)
            [
              (Proximity.gabriel, gabriel_blocks); (Proximity.rng, rng_blocks);
            ])
        [ 2; 3 ])

let test_proximity_edgeless () =
  let model =
    Ubg.Generator.instance ~alpha:0.8
      [| Point.make2 0.0 0.0; Point.make2 5.0 0.0 |]
  in
  Alcotest.(check int) "gabriel" 0 (Wgraph.n_edges (Proximity.gabriel model));
  Alcotest.(check int) "rng" 0 (Wgraph.n_edges (Proximity.rng model))

let prop_rng_subset_gabriel =
  qtest ~count:15 "rng: contained in gabriel" seed_arb (fun seed ->
      let model = random_model ~seed ~n:50 ~dim:2 ~alpha:0.8 in
      let gg = Proximity.gabriel model and rg = Proximity.rng model in
      is_subgraph ~base:gg rg)

let prop_emst_subset_rng_on_udg =
  (* Classical chain: EMST ⊆ RNG ⊆ Gabriel; on a connected UDG with
     keep-all the UBG contains the EMST, so the MST of the UDG is the
     EMST and must survive both filters. *)
  qtest ~count:15 "rng: contains the Euclidean MST on a UDG" seed_arb
    (fun seed ->
      let model = udg ~seed ~n:50 in
      let rg = Proximity.rng model in
      List.for_all
        (fun (e : Wgraph.edge) -> Wgraph.mem_edge rg e.u e.v)
        (Graph.Mst.kruskal model.Model.graph))

let prop_proximity_connected_on_udg =
  qtest ~count:15 "gabriel/rng: connected on a connected UDG" seed_arb
    (fun seed ->
      let model = udg ~seed ~n:50 in
      Graph.Components.is_connected (Proximity.gabriel model)
      && Graph.Components.is_connected (Proximity.rng model))

(* ------------------------------------------------------------------ *)
(* LMST / XTC                                                         *)
(* ------------------------------------------------------------------ *)

let prop_lmst_connected_on_udg =
  qtest ~count:15 "lmst: symmetric variant connected on a UDG" seed_arb
    (fun seed ->
      let model = udg ~seed ~n:50 in
      Graph.Components.is_connected (Lmst.build model))

let prop_lmst_symmetric_subset_asymmetric =
  qtest ~count:15 "lmst: symmetric ⊆ asymmetric" seed_arb (fun seed ->
      let model = udg ~seed ~n:40 in
      is_subgraph
        ~base:(Lmst.build ~mode:Lmst.Asymmetric model)
        (Lmst.build ~mode:Lmst.Symmetric model))

let prop_lmst_low_degree =
  (* Planar-UDG LMST has degree <= 6 in theory; allow slack for UBG
     boundary effects. *)
  qtest ~count:15 "lmst: small maximum degree" seed_arb (fun seed ->
      let model = udg ~seed ~n:60 in
      Wgraph.max_degree (Lmst.build model) <= 8)

let prop_xtc_connected_on_udg =
  qtest ~count:15 "xtc: connected on a connected UDG" seed_arb (fun seed ->
      let model = udg ~seed ~n:50 in
      Graph.Components.is_connected (Xtc.build model))

let prop_xtc_contains_mst =
  (* The shortest edge between any cut is never dropped: a witness w
     better than both endpoints would itself form a shorter crossing
     pair, contradiction — so MST ⊆ XTC on distinct-lengths inputs. *)
  qtest ~count:15 "xtc: contains the MST" seed_arb (fun seed ->
      let model = udg ~seed ~n:50 in
      let x = Xtc.build model in
      List.for_all
        (fun (e : Wgraph.edge) -> Wgraph.mem_edge x e.u e.v)
        (Graph.Mst.kruskal model.Model.graph))

let prop_xtc_low_degree =
  qtest ~count:15 "xtc: small maximum degree" seed_arb (fun seed ->
      let model = udg ~seed ~n:60 in
      Wgraph.max_degree (Xtc.build model) <= 8)

(* ------------------------------------------------------------------ *)
(* Routing                                                            *)
(* ------------------------------------------------------------------ *)

let test_routing_on_grid () =
  (* A jitter-free grid: greedy routing always succeeds on the full
     UDG. *)
  let pts = Ubg.Generator.points ~seed:1 ~dim:2 ~n:25
      (Ubg.Generator.Perturbed_grid { spacing = 0.9; jitter = 0.0 }) in
  let model = Ubg.Generator.instance ~alpha:1.0 pts in
  let stats =
    Routing.trial ~seed:2 ~model ~topology:model.Model.graph ~pairs:50
  in
  check_float "full delivery" 1.0 stats.Routing.delivery_rate;
  Alcotest.(check bool) "stretch sane" true (stats.Routing.avg_stretch >= 1.0 -. 1e-9)

let prop_routing_outcomes_valid =
  qtest ~count:15 "routing: delivered paths are genuine" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let model = udg ~seed ~n:40 in
      let topology = Proximity.gabriel model in
      let n = Model.n model in
      let ok = ref true in
      for _ = 1 to 10 do
        let src = Random.State.int st n in
        let dst = (src + 1 + Random.State.int st (n - 1)) mod n in
        if src <> dst then
          match Routing.greedy ~model ~topology ~src ~dst with
          | Routing.Delivered { path; length; hops } ->
              if not (Graph.Path.is_valid topology path) then ok := false;
              if Graph.Path.hops path <> hops then ok := false;
              if not (close ~eps:1e-9 (Graph.Path.length topology path) length)
              then ok := false;
              (match (path, List.rev path) with
              | p0 :: _, pl :: _ -> if p0 <> src || pl <> dst then ok := false
              | _ -> ok := false)
          | Routing.Stuck _ -> ()
      done;
      !ok)

let prop_routing_rate_bounds =
  qtest ~count:10 "routing: delivery rate within [0, 1]" seed_arb (fun seed ->
      let model = udg ~seed ~n:30 in
      let stats =
        Routing.trial ~seed ~model ~topology:(Lmst.build model) ~pairs:30
      in
      stats.Routing.delivery_rate >= 0.0 && stats.Routing.delivery_rate <= 1.0)

let () =
  Alcotest.run "baselines"
    [
      ("generic", [ prop_all_subgraphs ]);
      ( "yao/theta",
        [
          prop_yao_connected_on_udg;
          prop_yao_keeps_nearest_neighbor;
          prop_theta_connected_on_udg;
          prop_yao_sparse;
          Alcotest.test_case "3-d yao" `Quick test_yao_3d;
        ] );
      ( "gabriel/rng",
        [
          prop_proximity_matches_brute_force;
          Alcotest.test_case "edgeless input" `Quick test_proximity_edgeless;
          prop_rng_subset_gabriel;
          prop_emst_subset_rng_on_udg;
          prop_proximity_connected_on_udg;
        ] );
      ( "lmst/xtc",
        [
          prop_lmst_connected_on_udg;
          prop_lmst_symmetric_subset_asymmetric;
          prop_lmst_low_degree;
          prop_xtc_connected_on_udg;
          prop_xtc_contains_mst;
          prop_xtc_low_degree;
        ] );
      ( "routing",
        [
          Alcotest.test_case "grid delivery" `Quick test_routing_on_grid;
          prop_routing_outcomes_valid;
          prop_routing_rate_bounds;
        ] );
    ]
