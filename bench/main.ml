(* Experiment harness.

   The paper (PODC 2006) is a theory paper: it has no result tables and
   its six figures illustrate definitions. Every quantitative claim is
   a theorem or lemma; this harness regenerates one table per claim
   (E1-E12, see DESIGN.md section 3 and EXPERIMENTS.md for the
   paper-vs-measured record) and finishes with Bechamel
   micro-benchmarks of each pipeline stage.

   Run with:  dune exec bench/main.exe            (all experiments)
              dune exec bench/main.exe -- E4 E8   (a subset)
              dune exec bench/main.exe -- quick   (smaller sweeps)

   Gated experiments write BENCH_<x>.json records (see record.ml); if
   any gate failed, the run exits 2 after the last selected
   experiment. *)

module Wgraph = Graph.Wgraph
module Model = Ubg.Model
module Relaxed_greedy = Topo.Relaxed_greedy
module Report = Analysis.Report
module Metrics = Analysis.Metrics

let quick = Record.quick

let model_of ~seed ~n ~dim ~alpha =
  let side =
    Ubg.Generator.side_for_expected_degree ~dim ~n ~alpha ~degree:10.0
  in
  Ubg.Generator.connected ~seed ~dim ~n ~alpha
    (Ubg.Generator.Uniform { side })

let log_ref n =
  log (float_of_int n) /. log 2.0
  *. float_of_int (Distrib.Dist_greedy.log_star (float_of_int n))

(* ------------------------------------------------------------------ *)
(* Shared sweep for E1/E2/E3/E5/E6: one relaxed-greedy build per       *)
(* (eps, n) cell, measured once.                                       *)
(* ------------------------------------------------------------------ *)

type cell = {
  eps : float;
  n : int;
  m_in : int;
  summary : Metrics.summary;
  max_qpc : int; (* Lemma 4 quantity, max over phases *)
  max_inter : int; (* Lemma 6 quantity, max over phases *)
  seconds : float;
}

let sweep_cells =
  lazy
    (let epss = [ 0.25; 0.5; 1.0 ] in
     let ns = if !quick then [ 150; 300 ] else [ 150; 300; 600; 1200 ] in
     List.concat_map
       (fun eps ->
         List.map
           (fun n ->
             let model = model_of ~seed:(42 + n) ~n ~dim:2 ~alpha:0.8 in
             let t0 = Unix.gettimeofday () in
             let r = Relaxed_greedy.build_eps ~eps model in
             let seconds = Unix.gettimeofday () -. t0 in
             let summary =
               Metrics.summarize ~base:model.Model.graph
                 r.Relaxed_greedy.spanner
             in
             let totals = Relaxed_greedy.totals r.Relaxed_greedy.stats in
             let max_qpc = totals.Relaxed_greedy.peak_queries_per_cluster
             and max_inter = totals.Relaxed_greedy.peak_inter_degree in
             {
               eps;
               n;
               m_in = Wgraph.n_edges model.Model.graph;
               summary;
               max_qpc;
               max_inter;
               seconds;
             })
           ns)
       epss)

let e1 () =
  let t =
    Report.create
      ~title:"E1 (Theorem 10): stretch of G' stays within t = 1 + eps"
      ~columns:[ "eps"; "n"; "m_in"; "m_out"; "stretch"; "t"; "ok" ]
  in
  List.iter
    (fun c ->
      Report.add_row t
        [
          Report.cell_f c.eps;
          Report.cell_i c.n;
          Report.cell_i c.m_in;
          Report.cell_i c.summary.Metrics.n_edges;
          Printf.sprintf "%.4f" c.summary.Metrics.edge_stretch;
          Report.cell_f (1.0 +. c.eps);
          (if c.summary.Metrics.edge_stretch <= 1.0 +. c.eps +. 1e-9 then "yes"
           else "NO");
        ])
    (Lazy.force sweep_cells);
  Report.print t

let e2 () =
  let t =
    Report.create ~title:"E2 (Theorem 11): maximum degree is flat in n"
      ~columns:[ "eps"; "n"; "max degree"; "avg degree" ]
  in
  List.iter
    (fun c ->
      Report.add_row t
        [
          Report.cell_f c.eps;
          Report.cell_i c.n;
          Report.cell_i c.summary.Metrics.max_degree;
          Printf.sprintf "%.2f" c.summary.Metrics.avg_degree;
        ])
    (Lazy.force sweep_cells);
  Report.print t

let e3 () =
  let t =
    Report.create ~title:"E3 (Theorem 13): spanner weight is O(w(MST))"
      ~columns:[ "eps"; "n"; "w(G')/w(MST)"; "power/MST-power"; "build s" ]
  in
  List.iter
    (fun c ->
      Report.add_row t
        [
          Report.cell_f c.eps;
          Report.cell_i c.n;
          Report.cell_f c.summary.Metrics.mst_ratio;
          Report.cell_f c.summary.Metrics.power_ratio;
          Printf.sprintf "%.2f" c.seconds;
        ])
    (Lazy.force sweep_cells);
  Report.print t

let e4 () =
  let t =
    Report.create
      ~title:
        "E4 (main theorem): distributed rounds vs O(log n log* n) (eps = 0.5)"
      ~columns:
        [
          "n"; "rounds"; "gather"; "cover MIS"; "redund. MIS"; "log n log* n";
          "ratio"; "stretch";
        ]
  in
  let ns = if !quick then [ 100; 200 ] else [ 100; 200; 400; 800 ] in
  List.iter
    (fun n ->
      let model = model_of ~seed:(7 + n) ~n ~dim:2 ~alpha:0.8 in
      let r = Distrib.Dist_greedy.build_eps ~seed:n ~eps:0.5 model in
      let g, c, rd =
        List.fold_left
          (fun (g, c, rd) (tr : Distrib.Dist_greedy.phase_trace) ->
            ( g + tr.gather_rounds,
              c + tr.cover_mis_rounds,
              rd + tr.redundant_mis_rounds ))
          (0, 0, 0) r.Distrib.Dist_greedy.traces
      in
      let stretch =
        Topo.Verify.edge_stretch ~base:model.Model.graph
          ~spanner:r.Distrib.Dist_greedy.spanner
      in
      Report.add_row t
        [
          Report.cell_i n;
          Report.cell_i r.Distrib.Dist_greedy.rounds;
          Report.cell_i g;
          Report.cell_i c;
          Report.cell_i rd;
          Printf.sprintf "%.1f" (log_ref n);
          Printf.sprintf "%.1f"
            (float_of_int r.Distrib.Dist_greedy.rounds /. log_ref n);
          Printf.sprintf "%.4f" stretch;
        ])
    ns;
  Report.print t;
  print_endline "   (a flat ratio column is the paper's O(log n log* n) shape)"

let e5 () =
  let t =
    Report.create
      ~title:
        "E5 (Lemma 4): query edges incident on a cluster, max over phases"
      ~columns:[ "eps"; "n"; "max queries/cluster" ]
  in
  List.iter
    (fun c ->
      Report.add_row t
        [ Report.cell_f c.eps; Report.cell_i c.n; Report.cell_i c.max_qpc ])
    (Lazy.force sweep_cells);
  Report.print t

let e6 () =
  let t =
    Report.create
      ~title:
        "E6 (Lemma 6): inter-cluster edges per center in H, max over phases"
      ~columns:[ "eps"; "n"; "max inter-degree" ]
  in
  List.iter
    (fun c ->
      Report.add_row t
        [ Report.cell_f c.eps; Report.cell_i c.n; Report.cell_i c.max_inter ])
    (Lazy.force sweep_cells);
  Report.print t

(* E7: hop count needed by cluster-graph queries vs the Lemma 8 bound.
   Rebuilds a phase context (partial spanner of edges <= W_{i-1},
   cover, H) and, for each bin edge whose query succeeds, finds the
   smallest hop budget that answers it. *)
let e7 () =
  let t =
    Report.create
      ~title:"E7 (Lemma 8 / Theorem 9): hops needed by H-queries vs bound"
      ~columns:
        [ "eps"; "W_{i-1}"; "queries"; "answered"; "max hops used"; "bound" ]
  in
  let n = if !quick then 150 else 300 in
  let model = model_of ~seed:77 ~n ~dim:2 ~alpha:0.8 in
  List.iter
    (fun eps ->
      let params = Topo.Params.make ~t:(1.0 +. eps) ~alpha:0.8 ~dim:2 () in
      List.iter
        (fun w_prev ->
          let short = Wgraph.create (Model.n model) in
          Wgraph.iter_edges model.Model.graph (fun u v w ->
              if w <= w_prev then Wgraph.add_edge short u v w);
          let spanner = Topo.Seq_greedy.spanner short ~t:(1.0 +. eps) in
          let radius = params.Topo.Params.delta *. w_prev in
          let cover = Topo.Cluster_cover.compute spanner ~radius in
          let h = Topo.Cluster_graph.build ~spanner ~cover ~w_prev in
          let bound_hops = Topo.Params.query_hop_limit params in
          let bin =
            List.filter
              (fun (e : Wgraph.edge) ->
                e.w > w_prev && e.w <= w_prev *. params.Topo.Params.r)
              (Wgraph.edges model.Model.graph)
          in
          let answered = ref 0 and max_hops_used = ref 0 in
          List.iter
            (fun (e : Wgraph.edge) ->
              let budget = params.Topo.Params.t *. e.w in
              if
                Topo.Cluster_graph.sp_upto h ~max_hops:bound_hops e.u e.v
                  ~bound:budget
                <= budget
              then begin
                incr answered;
                let rec need k =
                  if
                    Topo.Cluster_graph.sp_upto h ~max_hops:k e.u e.v
                      ~bound:budget
                    <= budget
                  then k
                  else need (k + 1)
                in
                let k = need 1 in
                if k > !max_hops_used then max_hops_used := k
              end)
            bin;
          Report.add_row t
            [
              Report.cell_f eps;
              Report.cell_f w_prev;
              Report.cell_i (List.length bin);
              Report.cell_i !answered;
              Report.cell_i !max_hops_used;
              Report.cell_i bound_hops;
            ])
        [ 0.15; 0.3; 0.6 ])
    [ 0.5; 1.0 ];
  Report.print t

(* E8: the Section 1.3 comparison. Reference points from the paper's
   related work: [15] computes a planar t ~ 6.2 spanner with degree
   <= 25 in linearly many rounds; this paper achieves any 1 + eps. *)
let e8 () =
  let n = if !quick then 250 else 500 in
  let eps = 0.5 in
  let model = model_of ~seed:8 ~n ~dim:2 ~alpha:0.8 in
  let base = model.Model.graph in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E8 (Section 1.3): algorithm comparison, n = %d, alpha = 0.8, t = %.1f"
           n (1.0 +. eps))
      ~columns:
        [ "algorithm"; "edges"; "maxdeg"; "stretch"; "w/MST"; "power/MST" ]
  in
  let row name g =
    let s = Metrics.summarize ~base g in
    Report.add_row t
      [
        name;
        Report.cell_i s.Metrics.n_edges;
        Report.cell_i s.Metrics.max_degree;
        Report.cell_f s.Metrics.edge_stretch;
        Report.cell_f s.Metrics.mst_ratio;
        Report.cell_f s.Metrics.power_ratio;
      ]
  in
  row "input UBG" base;
  row "relaxed greedy (paper)"
    (Relaxed_greedy.build_eps ~eps model).Relaxed_greedy.spanner;
  row "SEQ-GREEDY" (Topo.Seq_greedy.spanner base ~t:(1.0 +. eps));
  row "yao (8 cones)" (Baselines.Cone_graphs.yao model ~cones:8);
  row "theta (8 cones)" (Baselines.Cone_graphs.theta model ~cones:8);
  row "gabriel" (Baselines.Proximity_graphs.gabriel model);
  row "rng" (Baselines.Proximity_graphs.rng model);
  row "lmst" (Baselines.Lmst.build model);
  row "xtc" (Baselines.Xtc.build model);
  row "unit delaunay" (Baselines.Udel.build model);
  row "bounded planar [15]" (Baselines.Bounded_planar.build model);
  row "mst" (Graph.Mst.forest base);
  Report.print t;
  print_endline
    "   (paper ref [15]: planar spanner with t ~ 6.2, degree <= 25, linear \
     rounds;";
  print_endline
    "    this paper: any t = 1 + eps, O(1) degree, O(log n log* n) rounds)"

let e9 () =
  let n = if !quick then 200 else 400 in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E9 (Section 1.1): robustness across alpha (n = %d, eps = 0.5)" n)
      ~columns:[ "alpha"; "m_in"; "m_out"; "stretch"; "maxdeg"; "w/MST" ]
  in
  List.iter
    (fun alpha ->
      let model = model_of ~seed:9 ~n ~dim:2 ~alpha in
      let r = Relaxed_greedy.build_eps ~eps:0.5 model in
      let s =
        Metrics.summarize ~base:model.Model.graph r.Relaxed_greedy.spanner
      in
      Report.add_row t
        [
          Report.cell_f alpha;
          Report.cell_i (Wgraph.n_edges model.Model.graph);
          Report.cell_i s.Metrics.n_edges;
          Printf.sprintf "%.4f" s.Metrics.edge_stretch;
          Report.cell_i s.Metrics.max_degree;
          Report.cell_f s.Metrics.mst_ratio;
        ])
    [ 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ];
  Report.print t

let e10 () =
  let n = if !quick then 150 else 300 in
  let t =
    Report.create
      ~title:"E10 (Section 1.1): robustness across dimension (eps = 0.5)"
      ~columns:[ "d"; "n"; "m_in"; "m_out"; "stretch"; "maxdeg"; "w/MST" ]
  in
  List.iter
    (fun dim ->
      let model = model_of ~seed:10 ~n ~dim ~alpha:0.7 in
      let r = Relaxed_greedy.build_eps ~eps:0.5 model in
      let s =
        Metrics.summarize ~base:model.Model.graph r.Relaxed_greedy.spanner
      in
      Report.add_row t
        [
          Report.cell_i dim;
          Report.cell_i n;
          Report.cell_i (Wgraph.n_edges model.Model.graph);
          Report.cell_i s.Metrics.n_edges;
          Printf.sprintf "%.4f" s.Metrics.edge_stretch;
          Report.cell_i s.Metrics.max_degree;
          Report.cell_f s.Metrics.mst_ratio;
        ])
    [ 2; 3; 4 ];
  Report.print t

let e11 () =
  let n = if !quick then 150 else 300 in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E11 (Sections 1.6.2-1.6.3): energy metric |uv|^gamma (n = %d, \
            eps = 0.5)"
           n)
      ~columns:
        [
          "gamma"; "m_out"; "energy stretch"; "maxdeg"; "energy w/MST";
          "power saved";
        ]
  in
  let model = model_of ~seed:11 ~n ~dim:2 ~alpha:0.8 in
  List.iter
    (fun gamma ->
      let metric = Geometry.Metric.Energy { c = 1.0; gamma } in
      let r = Relaxed_greedy.build_eps ~metric ~eps:0.5 model in
      let base_energy = Model.reweight model metric in
      let spanner = r.Relaxed_greedy.spanner in
      let stretch = Topo.Verify.edge_stretch ~base:base_energy ~spanner in
      let saved =
        1.0 -. (Metrics.power_cost spanner /. Metrics.power_cost base_energy)
      in
      Report.add_row t
        [
          Report.cell_f gamma;
          Report.cell_i (Wgraph.n_edges spanner);
          Printf.sprintf "%.4f" stretch;
          Report.cell_i (Wgraph.max_degree spanner);
          Report.cell_f
            (Wgraph.total_weight spanner /. Graph.Mst.weight base_energy);
          Printf.sprintf "%.0f%%" (100.0 *. saved);
        ])
    [ 1.0; 2.0; 3.0 ];
  Report.print t

let e12 () =
  let n = if !quick then 120 else 200 in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E12 (Section 1.6.1): k-edge-fault tolerance (n = %d, t = 1.8)" n)
      ~columns:
        [
          "k"; "edges"; "w/MST"; "intact stretch"; "worst stretch (40 trials)";
        ]
  in
  let model = model_of ~seed:12 ~n ~dim:2 ~alpha:0.8 in
  let base = model.Model.graph in
  let st = Random.State.make [| 2026 |] in
  List.iter
    (fun k ->
      let spanner = Topo.Fault_tolerant.spanner base ~t:1.8 ~k in
      let intact = Topo.Verify.edge_stretch ~base ~spanner in
      let worst = ref 1.0 in
      let edges = Array.of_list (Wgraph.edges spanner) in
      for _ = 1 to 40 do
        let faults =
          List.init k (fun _ ->
              let e = edges.(Random.State.int st (Array.length edges)) in
              (e.Wgraph.u, e.Wgraph.v))
        in
        let s =
          Topo.Fault_tolerant.stretch_under_faults ~base ~spanner ~faults
        in
        if s > !worst then worst := s
      done;
      Report.add_row t
        [
          Report.cell_i k;
          Report.cell_i (Wgraph.n_edges spanner);
          Report.cell_f
            (Wgraph.total_weight spanner /. Graph.Mst.weight base);
          Printf.sprintf "%.4f" intact;
          Report.cell_f !worst;
        ])
    [ 0; 1; 2 ];
  Report.print t

(* E14: the Section 1.4 computational-geometry context — greedy versus
   the WSPD spanner on complete Euclidean graphs. *)
let e14 () =
  let n = if !quick then 100 else 200 in
  let t_target = 1.5 in
  let st = Random.State.make [| 14 |] in
  let points =
    Array.init n (fun _ ->
        Geometry.Point.random ~st ~dim:2 ~lo:0.0 ~hi:5.0)
  in
  let complete = Wgraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let d = Geometry.Point.distance points.(u) points.(v) in
      if d > 0.0 then Wgraph.add_edge complete u v d
    done
  done;
  let table =
    Report.create
      ~title:
        (Printf.sprintf
           "E14 (Section 1.4): complete Euclidean graph, n = %d, t = %.1f" n
           t_target)
      ~columns:[ "algorithm"; "edges"; "maxdeg"; "stretch"; "w/MST" ]
  in
  let row name g =
    Report.add_row table
      [
        name;
        Report.cell_i (Wgraph.n_edges g);
        Report.cell_i (Wgraph.max_degree g);
        Report.cell_f (Topo.Verify.edge_stretch ~base:complete ~spanner:g);
        Report.cell_f (Wgraph.total_weight g /. Graph.Mst.weight complete);
      ]
  in
  row "SEQ-GREEDY" (Topo.Seq_greedy.spanner complete ~t:t_target);
  row "WSPD spanner" (Baselines.Wspd.spanner ~t:t_target points);
  Report.print table;
  print_endline
    "   (greedy: fewer edges and near-MST weight; WSPD: coarser but\n\
     \    near-linear construction — the trade-off Section 1.4 describes)"

(* E15: planar topologies and face routing with guaranteed delivery —
   the paper's Section 1.3 motivation for planarity ([9]). *)
let e15 () =
  let n = if !quick then 150 else 300 in
  let model = model_of ~seed:15 ~n ~dim:2 ~alpha:1.0 in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E15 (Section 1.3 / [9]): routing over topologies, n = %d, 300 \
            packets"
           n)
      ~columns:
        [ "topology"; "edges"; "plane?"; "greedy delivery"; "gfg delivery";
          "gfg avg stretch" ]
  in
  let row name topology =
    let greedy_stats =
      Baselines.Routing.trial ~seed:3 ~model ~topology ~pairs:300
    in
    let plane =
      Analysis.Planarity.is_plane ~points:model.Model.points topology
    in
    let gfg_stats =
      if plane then
        Some
          (Baselines.Planar_routing.trial ~seed:3 ~model ~topology ~pairs:300
             ~route:Baselines.Planar_routing.gfg)
      else None
    in
    Report.add_row t
      [
        name;
        Report.cell_i (Wgraph.n_edges topology);
        (if plane then "yes" else "no");
        Printf.sprintf "%.1f%%"
          (100.0 *. greedy_stats.Baselines.Routing.delivery_rate);
        (match gfg_stats with
        | Some s ->
            Printf.sprintf "%.1f%%" (100.0 *. s.Baselines.Routing.delivery_rate)
        | None -> "-");
        (match gfg_stats with
        | Some s -> Report.cell_f s.Baselines.Routing.avg_stretch
        | None -> "-");
      ]
  in
  row "input UDG" model.Model.graph;
  row "relaxed greedy (paper)"
    (Relaxed_greedy.build_eps ~eps:0.5 model).Relaxed_greedy.spanner;
  row "gabriel" (Baselines.Proximity_graphs.gabriel model);
  row "rng" (Baselines.Proximity_graphs.rng model);
  row "unit delaunay" (Baselines.Udel.build model);
  row "bounded planar [15]" (Baselines.Bounded_planar.build model);
  Report.print t;
  print_endline
    "   (face routing delivers 100% on every plane topology; greedy alone\n\
     \    does not — the reason [13, 14, 15] insist on planar outputs)"

(* E16: message complexity of the distributed algorithm — the paper's
   model allows one message per neighbor per round, each O(log n) bits
   (O(1) words). *)
let e16 () =
  let t =
    Report.create
      ~title:
        "E16 (Section 1.1 model): simulated MIS message complexity (eps = 0.5)"
      ~columns:
        [
          "n"; "MIS messages"; "gather messages (charged)"; "msgs / node";
          "max words / message";
        ]
  in
  let ns = if !quick then [ 100; 200 ] else [ 100; 200; 400 ] in
  List.iter
    (fun n ->
      let model = model_of ~seed:(16 + n) ~n ~dim:2 ~alpha:0.8 in
      let m_edges = Wgraph.n_edges model.Model.graph in
      let r = Distrib.Dist_greedy.build_eps ~seed:n ~eps:0.5 model in
      let mis_msgs, gather_rounds, words =
        List.fold_left
          (fun (m, g, w) (tr : Distrib.Dist_greedy.phase_trace) ->
            ( m + tr.mis_messages,
              g + tr.gather_rounds,
              max w tr.max_message_words ))
          (0, 0, 0) r.Distrib.Dist_greedy.traces
      in
      (* A gather round floods over every link in both directions. *)
      let gather_msgs = 2 * m_edges * gather_rounds in
      Report.add_row t
        [
          Report.cell_i n;
          Report.cell_i mis_msgs;
          Report.cell_i gather_msgs;
          Printf.sprintf "%.0f"
            (float_of_int (mis_msgs + gather_msgs) /. float_of_int n);
          Report.cell_i words;
        ])
    ns;
  Report.print t;
  print_endline
    "   (messages are O(1) words each, honoring the O(log n)-bit model)"

(* E17: the all-protocol engine (Dist_protocol, zero oracle gathers)
   against the charged-gather engine (Dist_greedy): same guarantees,
   directly measured rounds and messages. *)
let e17 () =
  let t =
    Report.create
      ~title:
        "E17: charged-gather vs all-protocol distributed engines (eps = 0.5)"
      ~columns:
        [
          "n"; "charged rounds"; "protocol rounds"; "protocol messages";
          "stretch charged"; "stretch protocol";
        ]
  in
  let ns = if !quick then [ 50; 100 ] else [ 50; 100; 200 ] in
  List.iter
    (fun n ->
      let model = model_of ~seed:(17 + n) ~n ~dim:2 ~alpha:0.8 in
      let base = model.Model.graph in
      let charged = Distrib.Dist_greedy.build_eps ~seed:n ~eps:0.5 model in
      let protocol = Distrib.Dist_protocol.build_eps ~seed:n ~eps:0.5 model in
      Report.add_row t
        [
          Report.cell_i n;
          Report.cell_i charged.Distrib.Dist_greedy.rounds;
          Report.cell_i protocol.Distrib.Dist_protocol.rounds;
          Report.cell_i protocol.Distrib.Dist_protocol.messages;
          Printf.sprintf "%.4f"
            (Topo.Verify.edge_stretch ~base
               ~spanner:charged.Distrib.Dist_greedy.spanner);
          Printf.sprintf "%.4f"
            (Topo.Verify.edge_stretch ~base
               ~spanner:protocol.Distrib.Dist_protocol.spanner);
        ])
    ns;
  Report.print t;
  print_endline
    "   (the all-protocol engine floods every local view for real; its\n\
     \    round counts substantiate the charged model of E4)"

(* E18: Lemmas 15 and 20 — the derived metric spaces have small
   doubling constants, which is what licenses O(log* n) MIS on them. *)
let e18 () =
  let t =
    Report.create
      ~title:
        "E18 (Lemmas 15, 20): empirical doubling constants of the derived \
         metrics"
      ~columns:
        [ "n"; "sp-metric constant (L15)"; "d_J-metric constant (L20)" ]
  in
  let ns = if !quick then [ 60; 120 ] else [ 60; 120; 240 ] in
  let params = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:2 () in
  List.iter
    (fun n ->
      (* Denser fields give the current bin enough edges to sample the
         d_J metric. *)
      let side =
        Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha:0.8
          ~degree:16.0
      in
      let model =
        Ubg.Generator.connected ~seed:(18 + n) ~dim:2 ~n ~alpha:0.8
          (Ubg.Generator.Uniform { side })
      in
      let w_prev = 0.3 in
      let short = Wgraph.create n in
      Wgraph.iter_edges model.Model.graph (fun u v w ->
          if w <= w_prev then Wgraph.add_edge short u v w);
      let spanner = Topo.Seq_greedy.spanner short ~t:1.5 in
      (* Lemma 15: shortest-path metric of the partial spanner. *)
      let apsp = Graph.Apsp.dijkstra_all spanner in
      let c15 =
        Analysis.Doubling.estimate
          ~dist:(fun i j -> apsp.(i).(j))
          ~members:(Array.init n Fun.id)
          ~centers:[ 0; n / 3; n / 2; n - 1 ]
          ~radii:[ 0.15; 0.4; 1.0; 3.0 ]
      in
      (* Lemma 20: the d_J metric over the current bin's edges. *)
      let radius = params.Topo.Params.delta *. w_prev in
      let cover = Topo.Cluster_cover.compute spanner ~radius in
      let h = Topo.Cluster_graph.build ~spanner ~cover ~w_prev in
      let bin =
        Array.of_list
          (List.filter
             (fun (e : Wgraph.edge) ->
               e.w > w_prev && e.w <= w_prev *. params.Topo.Params.r)
             (Wgraph.edges model.Model.graph))
      in
      let c20 =
        if Array.length bin < 3 then 0
        else begin
          let dj i j =
            Topo.Redundant.d_j ~h ~max_hops:1000 ~bound:infinity bin.(i)
              bin.(j)
          in
          let members = Array.init (Array.length bin) Fun.id in
          Analysis.Doubling.estimate ~dist:dj ~members
            ~centers:[ 0; Array.length bin / 3; Array.length bin / 2 ]
            ~radii:[ 0.5; 1.5; 4.0 ]
        end
      in
      Report.add_row t
        [
          Report.cell_i n;
          Report.cell_i c15;
          (if c20 = 0 then "(bin too small)" else Report.cell_i c20);
        ])
    ns;
  Report.print t;
  print_endline
    "   (flat small constants across n are what Lemmas 15/20 assert)"

(* ------------------------------------------------------------------ *)
(* E-csr: hashtable adjacency vs frozen CSR snapshots.                 *)
(* ------------------------------------------------------------------ *)

(* Two measurements at n = 1200: (a) a full neighbor sweep (sum of all
   incident weights at every vertex) on the hashtable builder vs the
   CSR snapshot, repeated enough to dominate timer noise; (b) the whole
   Relaxed_greedy.build, whose phases now freeze one snapshot each. *)
let e_csr () =
  let n = if !quick then 300 else 1200 in
  let model = model_of ~seed:7 ~n ~dim:2 ~alpha:0.8 in
  let g = model.Model.graph in
  let c = Graph.Csr.of_wgraph g in
  let reps = if !quick then 200 else 500 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0.0 in
    for _ = 1 to reps do
      for u = 0 to n - 1 do
        f u (fun (_ : int) w -> acc := !acc +. w)
      done
    done;
    ignore !acc;
    Unix.gettimeofday () -. t0
  in
  let wg_iter u k = Wgraph.iter_neighbors g u k in
  let csr_iter u k = Graph.Csr.iter_neighbors c u k in
  let t_hash = time wg_iter in
  let t_csr = time csr_iter in
  let t0 = Unix.gettimeofday () in
  let r = Relaxed_greedy.build_eps ~eps:0.5 model in
  let t_build = Unix.gettimeofday () -. t0 in
  ignore r;
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E-csr: hashtable vs CSR snapshot (n = %d, m = %d, %d sweep reps)"
           n (Wgraph.n_edges g) reps)
      ~columns:[ "measurement"; "hashtable"; "csr"; "speedup" ]
  in
  Report.add_row t
    [
      "full neighbor sweep";
      Printf.sprintf "%.3f s" t_hash;
      Printf.sprintf "%.3f s" t_csr;
      Printf.sprintf "%.1fx" (t_hash /. t_csr);
    ];
  Report.add_row t
    [
      "relaxed greedy build (eps = 0.5)";
      "-";
      Printf.sprintf "%.2f s" t_build;
      "-";
    ];
  Report.print t;
  print_endline
    "   (sweep visits every adjacency once; csr walks two flat arrays)"

let canonical_edges g =
  List.sort compare
    (List.map
       (fun (e : Wgraph.edge) -> (min e.u e.v, max e.u e.v, e.w))
       (Wgraph.edges g))

(* ------------------------------------------------------------------ *)
(* E-scale: the scaling study — domains {1, 2, 4, 8} with per-stage    *)
(* wall times, a determinism cross-check and the soft perf gate.       *)
(* ------------------------------------------------------------------ *)

(* One relaxed-greedy build per domain count (best of [reps] runs, so
   the smoke-sized gate is not decided by timer noise), with per-stage
   wall times from the [stage.<name>] timers. Emits the "scale" record
   and gates determinism and wall time.

   The soft perf gate is hardware-aware. With >= 2 cores it asserts
   real scaling: 4-domain wall time <= 1-domain wall time within 10%
   tolerance (any engine regression — lock traffic, wake storms,
   allocation in the hot path — shows up here first). On a single-core
   box 4 domains cannot beat 1 and the OCaml runtime itself taxes the
   build: every stop-the-world section (one per minor GC and several
   per major cycle) must round-trip through each extra domain's backup
   thread, ~1 ms apiece under a hypervisor. There the gate instead
   bounds that oversubscription penalty: 4-domain wall <= 2x 1-domain
   wall. JSON records which mode applied.

   The harness widens the GC before measuring (larger minor arenas,
   higher space_overhead) so barrier *frequency* reflects the tuned
   deployments the scaling claim is about; both sides of the gate run
   under the identical configuration, and the old settings are
   restored afterwards. *)
let e_scale () =
  (* Full mode records at n = 2*10^4 by default (TOPO_SCALE_N
     overrides); the flat cluster-graph pipeline and grid-bucketed
     generation are what make this size routine. Quick mode builds at
     n = 2000, about 0.1 s a build on two vCPUs: at n = 300 a build
     lasted 14-23 ms, and the 4-to-1-domain ratio the perf gate reads
     was mostly scheduling noise (it failed 6 runs in 10). *)
  let n =
    match Sys.getenv_opt "TOPO_SCALE_N" with
    | Some s -> ( try max 100 (int_of_string s) with Failure _ -> 20_000)
    | None -> if !quick then 2_000 else 20_000
  in
  let eps = 0.5 in
  let reps = if !quick then 3 else if n <= 5_000 then 2 else 1 in
  let model = model_of ~seed:(42 + n) ~n ~dim:2 ~alpha:0.8 in
  let stage_timers =
    List.map
      (fun s -> (s, Obs.Metrics.timer ("stage." ^ s)))
      Relaxed_greedy.stages
  in
  let gc0 = Gc.get () in
  Gc.set
    {
      gc0 with
      Gc.minor_heap_size = 4 * 1024 * 1024 (* words/domain *);
      space_overhead = 500;
    };
  let measure d =
    Parallel.Pool.set_domains d;
    let best = ref None in
    for _ = 1 to reps do
      List.iter (fun (_, t) -> Obs.Metrics.reset t) stage_timers;
      let t0 = Unix.gettimeofday () in
      let r = Relaxed_greedy.build_eps ~eps model in
      let wall = Unix.gettimeofday () -. t0 in
      let stages =
        List.map (fun (s, t) -> (s, Obs.Metrics.timer_value t)) stage_timers
      in
      let edges = canonical_edges r.Relaxed_greedy.spanner in
      match !best with
      | Some (w, _, _) when w <= wall -> ()
      | Some _ | None -> best := Some (wall, stages, edges)
    done;
    let wall, stages, edges = Option.get !best in
    (d, wall, stages, edges)
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let runs = List.map measure domain_counts in
  Parallel.Pool.clear_domains ();
  (* End-to-end n = 10^5 leg: generate + build once, timed, while the
     widened GC settings are still in force. TOPO_SCALE_BIG=0 skips it;
     quick mode skips it by default. *)
  let big =
    let wanted =
      match Sys.getenv_opt "TOPO_SCALE_BIG" with
      | Some ("0" | "false" | "no") -> false
      | Some _ -> true
      | None -> not !quick
    in
    if not wanted then None
    else begin
      let nb = 100_000 in
      let side =
        Ubg.Generator.side_for_expected_degree ~dim:2 ~n:nb ~alpha:0.9
          ~degree:8.0
      in
      let t0 = Unix.gettimeofday () in
      let big_model =
        Ubg.Generator.generate ~seed:7 ~dim:2 ~n:nb ~alpha:0.9
          (Ubg.Generator.Uniform { side })
      in
      let gen_s = Unix.gettimeofday () -. t0 in
      let t1 = Unix.gettimeofday () in
      let r = Relaxed_greedy.build_eps ~eps big_model in
      let build_s = Unix.gettimeofday () -. t1 in
      let edges = Wgraph.n_edges r.Relaxed_greedy.spanner in
      Some (nb, gen_s, build_s, edges)
    end
  in
  Gc.set gc0;
  let _, base_wall, base_stages, base_edges = List.hd runs in
  let deterministic =
    List.for_all (fun (_, _, _, edges) -> edges = base_edges) runs
  in
  let gate_mode, gate_limit =
    Record.by_cores [ (2, ("scaling", 1.10)); (1, ("oversubscription", 2.0)) ]
  in
  let wall_of d =
    let _, w, _, _ = List.find (fun (d', _, _, _) -> d' = d) runs in
    w
  in
  let gate_ratio = wall_of 4 /. wall_of 1 in
  let gate_pass = gate_ratio <= gate_limit in
  (* Did the cluster_graph stage wall stay flat as domains grew? *)
  let stage_s stages name = fst (List.assoc name stages) in
  let cg_of stages = stage_s stages "cluster_graph" in
  let cluster_graph_stage_flat =
    List.for_all
      (fun (_, _, stages, _) ->
        cg_of stages <= (1.10 *. cg_of base_stages) +. 0.005)
      runs
  in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E-scale: build scaling vs domains (n = %d, eps = %.2f, %d cores, \
            best of %d)"
           n eps Record.cores reps)
      ~columns:
        [ "domains"; "wall s"; "speedup"; "cover s"; "select s";
          "cluster_graph s"; "queries s"; "identical" ]
  in
  List.iter
    (fun (d, wall, stages, edges) ->
      let stage name = Printf.sprintf "%.3f" (stage_s stages name) in
      Report.add_row t
        [
          Report.cell_i d;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.2fx" (base_wall /. wall);
          stage "cover";
          stage "select";
          stage "cluster_graph";
          stage "queries";
          (if edges = base_edges then "yes" else "NO");
        ])
    runs;
  Report.print t;
  Printf.printf "   determinism: %s; cluster_graph stage flat in domains: %s\n"
    (if deterministic then "bit-identical across 1/2/4/8 domains"
     else "VIOLATION: outputs differ")
    (if cluster_graph_stage_flat then "yes" else "NO");
  Printf.printf
    "   soft perf gate [%s: 4-domain wall <= %.2fx 1-domain wall]: %s \
     (%.3f s vs %.3f s, ratio %.2f)\n"
    gate_mode gate_limit
    (if gate_pass then "PASS" else "FAIL")
    (wall_of 4) (wall_of 1) gate_ratio;
  (match big with
  | None -> ()
  | Some (nb, gen_s, build_s, edges) ->
      Printf.printf
        "   n = %d end-to-end: generate %.2f s, build %.2f s, %d spanner \
         edges\n"
        nb gen_s build_s edges);
  Record.write "scale"
    Obs.Json.(
      Obj
        [
          ("experiment", Str "E-scale"); ("n", int n); ("eps", Num eps);
          ("reps", int reps); ("cores", int Record.cores);
          ("deterministic", Bool deterministic);
          ("cluster_graph_stage_flat", Bool cluster_graph_stage_flat);
          ( "big",
            match big with
            | None -> Null
            | Some (nb, gen_s, build_s, edges) ->
                Obj
                  [
                    ("n", int nb); ("generate_s", Num gen_s);
                    ("build_s", Num build_s); ("spanner_edges", int edges);
                  ] );
          ( "gate",
            Obj
              [
                ("mode", Str gate_mode); ("limit_ratio", Num gate_limit);
                ("wall_1d_s", Num (wall_of 1)); ("wall_4d_s", Num (wall_of 4));
                ("ratio", Num gate_ratio); ("pass", Bool gate_pass);
              ] );
          ( "runs",
            Arr
              (List.map
                 (fun (d, wall, stages, _) ->
                   let per_stage f =
                     Obj (List.map (fun (s, timer) -> (s, f timer)) stages)
                   in
                   Obj
                     [
                       ("domains", int d); ("wall_s", Num wall);
                       ("speedup", Num (base_wall /. wall));
                       ("stages", per_stage (fun (sec, _) -> Num sec));
                       ("stage_calls", per_stage (fun (_, calls) -> int calls));
                     ])
                 runs) );
        ]);
  Record.gate "E-scale.deterministic" deterministic;
  Record.gate "E-scale.perf" gate_pass;
  Record.gate "E-scale.cluster_graph_flat"
    (gate_mode <> "scaling" || cluster_graph_stage_flat)

(* ------------------------------------------------------------------ *)
(* E-churn: incremental repair vs full rebuild per epoch.              *)
(* ------------------------------------------------------------------ *)

(* Replays a recorded churn trace through Dynamic.Engine, measuring per
   epoch the incremental repair against a from-scratch relaxed-greedy
   rebuild of the same live instance. Outside the timed region, each
   epoch's stretch is compared with the full certifier on the epoch's
   graphs, bit for bit, and the share of alive sources the engine
   searched from (its [engine.certify_sources] gauge) is recorded. Also
   replays the whole trace at 1 and 4 domains and gates on every
   epoch's spanner being bit-identical. Emits the "dynamic" record. *)
let e_churn () =
  let n = if !quick then 300 else 10_000 in
  let eps = 0.5 and alpha = 0.8 in
  let epochs = 10 and batch_max = 8 in
  let model = model_of ~seed:(9 + n) ~n ~dim:2 ~alpha in
  let side =
    Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha ~degree:10.0
  in
  let trace =
    Ubg.Churn.generate ~seed:(n + 1) ~epochs ~batch_max
      (Ubg.Churn.default_dynamics ~side)
      model
  in
  let params = Topo.Params.of_epsilon ~eps ~alpha ~dim:2 in
  (* Determinism cross-check first: the per-epoch spanners must be
     bit-identical however the repair work is spread over domains. *)
  let fingerprint domains =
    Parallel.Pool.set_domains domains;
    let engine = Dynamic.Engine.create ~params model in
    let acc = ref [] in
    Dynamic.Engine.replay engine trace ~f:(fun r ->
        acc :=
          (r.Dynamic.Engine.epoch, canonical_edges (Dynamic.Engine.spanner engine))
          :: !acc);
    Parallel.Pool.clear_domains ();
    List.rev !acc
  in
  let deterministic = fingerprint 1 = fingerprint 4 in
  (* The measured run. *)
  let engine = Dynamic.Engine.create ~params model in
  let build_s = Dynamic.Engine.last_rebuild_seconds engine in
  let rows = ref [] and certify_exact = ref true in
  let certify_sources = Obs.Metrics.gauge "engine.certify_sources" in
  Dynamic.Engine.replay engine trace ~f:(fun r ->
      let snap = Dynamic.Engine.latest engine in
      let share =
        Obs.Metrics.gauge_value certify_sources
        /. float_of_int r.Dynamic.Engine.n_alive
      in
      let full =
        Topo.Verify.edge_stretch_csr ~base:snap.Dynamic.Engine.snap_ubg
          ~spanner:snap.Dynamic.Engine.snap_spanner
      in
      if Int64.bits_of_float full <> Int64.bits_of_float r.Dynamic.Engine.stretch
      then certify_exact := false;
      let weight_ratio = Dynamic.Engine.weight_ratio snap in
      let fresh_model, _ = Dynamic.Engine.current_model engine in
      let t0 = Unix.gettimeofday () in
      ignore (Relaxed_greedy.build ~params fresh_model);
      let rebuild_s = Unix.gettimeofday () -. t0 in
      rows := (r, weight_ratio, rebuild_s, share) :: !rows);
  let rows = List.rev !rows in
  let certify_exact = !certify_exact in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E-churn: incremental repair vs rebuild (n = %d, eps = %.2f, \
            batches <= %d, initial build %.2f s)"
           n eps batch_max build_s)
      ~columns:
        [ "epoch"; "ev"; "dirty%"; "kind"; "repair ms"; "certify ms";
          "src%"; "rebuild ms"; "speedup"; "stretch"; "maxdeg"; "w/MST" ]
  in
  List.iter
    (fun ((r : Dynamic.Engine.report), weight_ratio, rebuild_s, share) ->
      Report.add_row t
        [
          Report.cell_i r.Dynamic.Engine.epoch;
          Report.cell_i r.Dynamic.Engine.n_events;
          Report.cell_f (100.0 *. r.Dynamic.Engine.dirty_fraction);
          (match r.Dynamic.Engine.kind with
          | Dynamic.Engine.Incremental -> "incr"
          | Dynamic.Engine.Rebuild_threshold -> "rebuild"
          | Dynamic.Engine.Rebuild_cert_failure -> "cert-fail"
          | Dynamic.Engine.Rebuild_backend -> "backend");
          Report.cell_f (1e3 *. r.Dynamic.Engine.repair_seconds);
          Report.cell_f (1e3 *. r.Dynamic.Engine.certify_seconds);
          Report.cell_f (100.0 *. share);
          Report.cell_f (1e3 *. rebuild_s);
          Printf.sprintf "%.1fx"
            (rebuild_s /. Float.max 1e-9 r.Dynamic.Engine.repair_seconds);
          Report.cell_f r.Dynamic.Engine.stretch;
          Report.cell_i r.Dynamic.Engine.max_degree;
          Report.cell_f weight_ratio;
        ])
    rows;
  Report.print t;
  let speedups =
    List.map
      (fun ((r : Dynamic.Engine.report), _, rebuild_s, _) ->
        rebuild_s /. Float.max 1e-9 r.Dynamic.Engine.repair_seconds)
      rows
  in
  let min_speedup = List.fold_left Float.min infinity speedups in
  let sum_repair =
    List.fold_left
      (fun acc ((r : Dynamic.Engine.report), _, _, _) ->
        acc +. r.Dynamic.Engine.repair_seconds)
      0.0 rows
  and sum_rebuild =
    List.fold_left (fun acc (_, _, rb, _) -> acc +. rb) 0.0 rows
  in
  Printf.printf
    "   min per-epoch speedup %.1fx, aggregate %.1fx; bit-identical across \
     1/4 domains: %b\n\
    \   every epoch's stretch = the full certifier's, bit for bit: %b\n"
    min_speedup
    (sum_rebuild /. Float.max 1e-9 sum_repair)
    deterministic certify_exact;
  Record.write "dynamic"
    Obs.Json.(
      Obj
        [
          ("experiment", Str "E-churn"); ("n", int n); ("eps", Num eps);
          ("batch_max", int batch_max); ("initial_build_s", Num build_s);
          ("deterministic", Bool deterministic);
          ("certify_exact", Bool certify_exact);
          ("min_speedup", Num min_speedup);
          ( "epochs",
            Arr
              (List.map
                 (fun ((r : Dynamic.Engine.report), weight_ratio, rebuild_s,
                       share) ->
                   let kind =
                     match r.Dynamic.Engine.kind with
                     | Dynamic.Engine.Incremental -> "incremental"
                     | Dynamic.Engine.Rebuild_threshold -> "rebuild_threshold"
                     | Dynamic.Engine.Rebuild_cert_failure ->
                         "rebuild_cert_failure"
                     | Dynamic.Engine.Rebuild_backend -> "rebuild_backend"
                   in
                   let repair_s = r.Dynamic.Engine.repair_seconds in
                   Obj
                     [
                       ("epoch", int r.Dynamic.Engine.epoch);
                       ("events", int r.Dynamic.Engine.n_events);
                       ("dirty_fraction", Num r.Dynamic.Engine.dirty_fraction);
                       ("kind", Str kind); ("repair_s", Num repair_s);
                       ("certify_s", Num r.Dynamic.Engine.certify_seconds);
                       ("certify_share", Num share);
                       ("rebuild_s", Num rebuild_s);
                       ("speedup", Num (rebuild_s /. Float.max 1e-9 repair_s));
                       ("stretch", Num r.Dynamic.Engine.stretch);
                       ("max_degree", int r.Dynamic.Engine.max_degree);
                       ("weight_ratio", Num weight_ratio);
                     ])
                 rows) );
        ]);
  Record.gate "E-churn.deterministic" deterministic;
  Record.gate "E-churn.certify_exact" certify_exact

(* ------------------------------------------------------------------ *)
(* E-obs: tracing overhead — the disabled path must be free.           *)
(* ------------------------------------------------------------------ *)

(* Best-of-3 relaxed-greedy builds with tracing off and on. The "off"
   number is the one the acceptance gate cares about (instrumented code
   with the switch down should match the uninstrumented build); the
   "on" number plus the span count says what a recorded trace costs. *)
let e_obs () =
  let n = if !quick then 300 else 1200 in
  let eps = 0.5 in
  let model = model_of ~seed:(42 + n) ~n ~dim:2 ~alpha:0.8 in
  let best_of reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let w = Unix.gettimeofday () -. t0 in
      if w < !best then best := w
    done;
    !best
  in
  let was = Obs.Trace.enabled () in
  Obs.Trace.set_enabled false;
  let off_s = best_of 3 (fun () -> Relaxed_greedy.build_eps ~eps model) in
  Obs.Trace.set_enabled true;
  let n0 = Obs.Trace.n_events () in
  let on_s = best_of 3 (fun () -> Relaxed_greedy.build_eps ~eps model) in
  let spans = (Obs.Trace.n_events () - n0) / 3 in
  Obs.Trace.set_enabled was;
  let t =
    Report.create
      ~title:
        (Printf.sprintf "E-obs: tracing overhead (n = %d, eps = %.2f, best \
                         of 3)" n eps)
      ~columns:[ "tracing"; "wall s"; "overhead"; "spans/build" ]
  in
  Report.add_row t
    [ "off"; Printf.sprintf "%.3f" off_s; "-"; "0" ];
  Report.add_row t
    [
      "on";
      Printf.sprintf "%.3f" on_s;
      Printf.sprintf "%+.1f%%" (100.0 *. ((on_s /. off_s) -. 1.0));
      Report.cell_i spans;
    ];
  Report.print t;
  print_endline
    "   (off-mode instrumentation is one atomic load per site; the gate in \
     ISSUE/EXPERIMENTS\n\
     \    compares the off row against the pre-instrumentation build)"

(* ------------------------------------------------------------------ *)
(* E-compare: every registered SPANNER backend head-to-head on one     *)
(* instance — stretch / degree / weight / power / rounds / messages /  *)
(* build time, as a table, as gauges (kv), and as BENCH_compare.json.  *)
(* ------------------------------------------------------------------ *)

let e_compare () =
  Spanner.Backends.ensure ();
  let n = if !quick then 200 else 600 in
  let eps = 0.5 and alpha = 0.8 in
  let model = model_of ~seed:(23 + n) ~n ~dim:2 ~alpha in
  let params = Topo.Params.of_epsilon ~eps ~alpha ~dim:2 in
  let rows = Spanner.Compare.run ~params model in
  Report.print
    (Spanner.Compare.table
       ~title:
         (Printf.sprintf
            "E-compare: registered SPANNER backends (n = %d, t = %.2f)" n
            params.Topo.Params.t)
       rows);
  Spanner.Compare.set_gauges rows;
  Record.write "compare" (Spanner.Compare.to_json ~params ~model rows);
  List.iter
    (fun (r : Spanner.Compare.row) ->
      Record.gate
        ("E-compare." ^ Spanner.Backend.name r.Spanner.Compare.backend
       ^ ".stretch")
        (r.Spanner.Compare.t_ok <> Some false))
    rows

(* ------------------------------------------------------------------ *)
(* E-qps: oracle query-serving throughput.                             *)
(* ------------------------------------------------------------------ *)

(* Builds the relaxed-greedy spanner at n = 10^4 (quick: 1500), freezes
   it to CSR, precomputes the distance/routing oracle, and answers >=
   10^6 mixed queries against it: ~70% point-to-point distance
   estimates in pool batches, ~20% greedy next-hop forwarding steps,
   ~10% full route extractions. Four sub-checks ride along:

   - correctness: random pairs keep the oracle contract
     ([Contract.check]: every answer in [d, (1 + eps) d], every
     searched answer [distance_csr]'s bit for bit, every route a
     spanner walk of the answer's length), sampled until at least 1000
     answers came off the tables;
   - determinism: the distance batch is bit-identical at 1 and 4
     domains (slot-disjoint writes, schedule-independent values);
   - allocation: a single-domain batch of the pairs the oracle
     answered from its tables must not allocate per query — a table
     answer is flat int/float array arithmetic, and this is the
     sub-gate that catches an accidental boxing regression. The minor
     words per searched answer (an A* search) are recorded beside it,
     not gated;
   - throughput: batch qps at 4 domains vs 1 domain. On a >= 4 core
     box the soft gate wants 2x; on 2-3 cores it wants 1.2x; on 1 core
     the ratio is recorded but waived (oversubscription mode, like
     E-scale) and only the correctness sub-gates bind. The 1-domain
     batch is also split into its searched and its table pairs, each
     timed alone, and the searched pairs are timed again once the
     4-domain pool exists (recorded, not gated).

   Emits the "oracle" record; each sub-check is a gate. *)
let e_qps () =
  let n = if !quick then 1500 else 10_000 in
  let eps = 0.5 in
  let dist_total = if !quick then 70_000 else 700_000 in
  let hop_total = if !quick then 20_000 else 200_000 in
  let path_total = if !quick then 10_000 else 100_000 in
  let model = model_of ~seed:(42 + n) ~n ~dim:2 ~alpha:0.8 in
  let t0 = Unix.gettimeofday () in
  let r = Relaxed_greedy.build_eps ~eps model in
  let spanner_s = Unix.gettimeofday () -. t0 in
  let csr = Graph.Csr.of_wgraph r.Relaxed_greedy.spanner in
  let oracle = Oracle.Dist.build ~eps csr in
  let st = Oracle.Dist.stats oracle in
  let qws = Oracle.Dist.create_query_ws () in
  (* -- correctness: the sampled contract, until at least [min_far]
     answers came off the tables. Its pairs come from a copy of
     [rand], which moves past a fixed 200 pairs, so the batch, hop and
     path workloads below stay the same however many pairs the
     contract needs -- *)
  let rand = Random.State.make [| 42 + n; 0x09d5 |] in
  let sample = Random.State.copy rand in
  for _ = 1 to 2 * 200 do
    ignore (Random.State.int rand n)
  done;
  let min_far = 1_000 and max_pairs = 200_000 in
  let contract = Contract.create ~eps in
  while contract.far < min_far && contract.pairs < max_pairs do
    let u = Random.State.int sample n and v = Random.State.int sample n in
    ignore (Contract.check contract oracle qws csr u v)
  done;
  let correct = Contract.pass contract && contract.far >= min_far in
  (* -- distance batches at 1 and 4 domains ------------------------- *)
  let us = Array.init dist_total (fun _ -> Random.State.int rand n) in
  let vs = Array.init dist_total (fun _ -> Random.State.int rand n) in
  let out1 = Array.make dist_total 0.0 in
  let out4 = Array.make dist_total 0.0 in
  let reps = 2 in
  let measure d out =
    Parallel.Pool.set_domains d;
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      Oracle.Dist.distance_batch_into oracle ~u:us ~v:vs ~out;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    Parallel.Pool.clear_domains ();
    float_of_int dist_total /. !best
  in
  let qps1 = measure 1 out1 in
  let dist_wall = float_of_int dist_total /. qps1 in
  (* -- the 1-domain batch split into its near and far pairs, timed
     before the 4-domain pool exists: after it, the near pairs ran up
     to 1.4x slower on 2 vCPUs (cause not isolated) -- *)
  let split keep =
    let idx = List.filter keep (List.init dist_total Fun.id) in
    let pick a = Array.of_list (List.map (Array.get a) idx) in
    (pick us, pick vs)
  in
  (* A pair's answer came off the tables when the far count moved as
     it was answered again; only answers above the near bound can. *)
  let nb = st.Oracle.Dist.near_bound in
  let table =
    Array.init dist_total (fun i ->
        out1.(i) < infinity && out1.(i) > nb
        &&
        let far = Oracle.Dist.far_answers qws in
        ignore (Oracle.Dist.distance_estimate oracle qws us.(i) vs.(i));
        Oracle.Dist.far_answers qws > far)
  in
  let near_us, near_vs =
    split (fun i -> us.(i) <> vs.(i) && out1.(i) < infinity && not table.(i))
  in
  let far_us, far_vs = split (Array.get table) in
  let n_far = Array.length far_us in
  (* Searched pairs whose distance lies above the near bound: their L
     does too, so their rows did not certify it. A lower bound on the
     rejected pairs: one whose distance lies inside the band is not
     counted. *)
  let rejected =
    Array.fold_left
      (fun c d -> if d < infinity && d > nb then c + 1 else c)
      0 out1
    - n_far
  in
  let qps_of u v =
    let m = Array.length u in
    let out = Array.make m 0.0 in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      Oracle.Dist.distance_batch_into ~domains:1 oracle ~u ~v ~out;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    if m = 0 then nan else float_of_int m /. !best
  in
  let near_qps1 = qps_of near_us near_vs in
  let far_qps1 = qps_of far_us far_vs in
  (* -- minor words per near answer, on the warm main domain -------- *)
  let n_near = Array.length near_us in
  let near_words =
    if n_near = 0 then nan
    else begin
      let out = Array.make n_near 0.0 in
      let w0 = Gc.minor_words () in
      Oracle.Dist.distance_batch_into ~domains:1 oracle ~u:near_us ~v:near_vs
        ~out;
      (Gc.minor_words () -. w0) /. float_of_int n_near
    end
  in
  let qps4 = measure 4 out4 in
  let near_qps1_pooled = qps_of near_us near_vs in
  let deterministic = out1 = out4 in
  (* -- allocation probe: the table answers' batch on the warm main
     domain -- *)
  let alloc_measured = n_far >= 1_000 in
  let alloc_per_query =
    if not alloc_measured then nan
    else begin
      let fout = Array.make n_far 0.0 in
      Oracle.Dist.distance_batch_into ~domains:1 oracle ~u:far_us ~v:far_vs
        ~out:fout;
      let w0 = Gc.minor_words () in
      Oracle.Dist.distance_batch_into ~domains:1 oracle ~u:far_us ~v:far_vs
        ~out:fout;
      let w1 = Gc.minor_words () in
      (w1 -. w0) /. float_of_int n_far
    end
  in
  let alloc_pass = (not alloc_measured) || alloc_per_query < 0.5 in
  (* -- next-hop forwarding chains ----------------------------------- *)
  let hops = ref 0 and chains = ref 0 and delivered = ref 0 in
  let t0 = Unix.gettimeofday () in
  while !hops < hop_total do
    let src = Random.State.int rand n and dst = Random.State.int rand n in
    if src <> dst then begin
      incr chains;
      let cur = ref src and live = ref true and steps = ref 0 in
      while !live do
        let h = Oracle.Dist.next_hop oracle qws !cur ~dst in
        incr hops;
        incr steps;
        if h = -1 || h = -2 || !steps > 4 * n then live := false
        else begin
          cur := h;
          if h = dst then begin
            incr delivered;
            live := false
          end
        end
      done
    end
  done;
  let hop_wall = Unix.gettimeofday () -. t0 in
  (* -- full route extractions: their pairs come from a stream of
     their own, so the sample does not depend on how many pairs the
     hop chains above drew (a chain's length depends on the routes) -- *)
  let path_rand = Random.State.make [| 42 + n; 0x9a75 |] in
  let routed = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to path_total do
    let src = Random.State.int path_rand n
    and dst = Random.State.int path_rand n in
    match Oracle.Dist.spanner_path oracle qws ~src ~dst with
    | Some _ -> incr routed
    | None -> ()
  done;
  let path_wall = Unix.gettimeofday () -. t0 in
  let total = dist_total + hop_total + path_total in
  let mixed_wall = dist_wall +. hop_wall +. path_wall in
  let mixed_qps = float_of_int total /. mixed_wall in
  (* -- gates ---------------------------------------------------------- *)
  let gate_mode, gate_limit =
    Record.by_cores
      [
        (4, ("scaling", 2.0));
        (2, ("partial", 1.2));
        (1, ("oversubscription", 0.0));
      ]
  in
  let gate_ratio = qps4 /. qps1 in
  let gate_pass = gate_ratio >= gate_limit in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E-qps: oracle serving throughput (n = %d, eps = %.2f, %d \
            clusters, %d cores)"
           n eps st.Oracle.Dist.n_clusters Record.cores)
      ~columns:[ "workload"; "queries"; "wall s"; "queries/s"; "note" ]
  in
  Report.add_row t
    [
      "distance batch (1d)"; Report.cell_i dist_total;
      Printf.sprintf "%.3f" dist_wall; Printf.sprintf "%.3g" qps1;
      Printf.sprintf "%d far" n_far;
    ];
  Report.add_row t
    [
      "  near pairs (1d)"; Report.cell_i (Array.length near_us);
      Printf.sprintf "%.3f" (float_of_int (Array.length near_us) /. near_qps1);
      Printf.sprintf "%.3g" near_qps1; "A* searches";
    ];
  Report.add_row t
    [
      "  far pairs (1d)"; Report.cell_i (Array.length far_us);
      Printf.sprintf "%.3f" (float_of_int (Array.length far_us) /. far_qps1);
      Printf.sprintf "%.3g" far_qps1; "table reads";
    ];
  Report.add_row t
    [
      "  near pairs (1d, pooled)"; Report.cell_i n_near;
      Printf.sprintf "%.3f" (float_of_int n_near /. near_qps1_pooled);
      Printf.sprintf "%.3g" near_qps1_pooled; "after the 4d pool";
    ];
  Report.add_row t
    [
      "distance batch (4d)"; Report.cell_i dist_total;
      Printf.sprintf "%.3f" (float_of_int dist_total /. qps4);
      Printf.sprintf "%.3g" qps4;
      (if deterministic then "identical" else "DIFFERS");
    ];
  Report.add_row t
    [
      "next_hop chains"; Report.cell_i !hops;
      Printf.sprintf "%.3f" hop_wall;
      Printf.sprintf "%.3g" (float_of_int !hops /. hop_wall);
      Printf.sprintf "%d/%d delivered" !delivered !chains;
    ];
  Report.add_row t
    [
      "spanner_path"; Report.cell_i path_total;
      Printf.sprintf "%.3f" path_wall;
      Printf.sprintf "%.3g" (float_of_int path_total /. path_wall);
      Printf.sprintf "%d routed" !routed;
    ];
  Report.add_row t
    [
      "mixed total"; Report.cell_i total; Printf.sprintf "%.3f" mixed_wall;
      Printf.sprintf "%.3g" mixed_qps; "";
    ];
  Report.print t;
  Printf.printf
    "   oracle: build %.3f s (spanner %.3f s), %d clusters, radius %.4g, \
     near bound %.4g, %d table words\n"
    st.Oracle.Dist.build_seconds spanner_s st.Oracle.Dist.n_clusters
    st.Oracle.Dist.radius st.Oracle.Dist.near_bound
    st.Oracle.Dist.table_words;
  Printf.printf "   correctness on %s%s\n" (Contract.summary contract)
    (if contract.far < min_far then
       Printf.sprintf "; FAIL: fewer than %d from the tables" min_far
     else "");
  Printf.printf
    "   answer rule: %d batch pairs from the tables; at least %d (%.2f%% of \
     the batch) beyond the near band searched, their rows not certifying \
     L\n"
    n_far rejected
    (100.0 *. float_of_int rejected /. float_of_int dist_total);
  Printf.printf "   allocation: %s\n"
    (if not alloc_measured then
       Printf.sprintf "skipped (%d table answers < 1000)" n_far
     else
       Printf.sprintf "%.4f minor words/query over %d table answers: %s"
         alloc_per_query n_far
         (if alloc_pass then "PASS" else "FAIL"));
  Printf.printf "   near answers: %.1f minor words/query over %d (recorded)\n"
    near_words n_near;
  Printf.printf
    "   soft qps gate [%s: 4-domain qps >= %.1fx 1-domain]: %s (ratio \
     %.2f)\n"
    gate_mode gate_limit
    (if gate_pass then "PASS" else "FAIL")
    gate_ratio;
  Record.write "oracle"
    Obs.Json.(
      Obj
        [
          ("experiment", Str "E-qps"); ("n", int n);
          ("m", int st.Oracle.Dist.n_edges); ("eps", Num eps);
          ("cores", int Record.cores);
          ( "oracle",
            Obj
              [
                ("clusters", int st.Oracle.Dist.n_clusters);
                ("radius", Num st.Oracle.Dist.radius);
                ("near_bound", Num st.Oracle.Dist.near_bound);
                ("table_words", int st.Oracle.Dist.table_words);
                ("build_s", Num st.Oracle.Dist.build_seconds);
                ("spanner_build_s", Num spanner_s);
              ] );
          ( "queries",
            Obj
              [
                ("distance", int dist_total); ("next_hop", int !hops);
                ("path", int path_total); ("total", int total);
                ("mixed_wall_s", Num mixed_wall); ("mixed_qps", Num mixed_qps);
              ] );
          ( "batch",
            Obj
              [
                ("qps_1d", Num qps1); ("qps_4d", Num qps4);
                ("near_qps_1d", Num near_qps1); ("far_qps_1d", Num far_qps1);
                ("near_qps_1d_pooled", Num near_qps1_pooled);
                ("searched_above_band", int rejected);
                ("ratio", Num gate_ratio);
                ("deterministic", Bool deterministic);
              ] );
          (* minor_words_per_query is nan, so null, when not measured *)
          ( "alloc",
            Obj
              [
                ("measured", Bool alloc_measured); ("far_queries", int n_far);
                ("minor_words_per_query", Num alloc_per_query);
                ("pass", Bool alloc_pass);
                ("near_queries", int n_near);
                ("near_minor_words_per_query", Num near_words);
              ] );
          ("correctness", Contract.to_json contract);
          ( "gate",
            Obj
              [
                ("mode", Str gate_mode); ("limit_ratio", Num gate_limit);
                ("ratio", Num gate_ratio); ("pass", Bool gate_pass);
              ] );
        ]);
  Record.gate "E-qps.correct" correct;
  Record.gate "E-qps.deterministic" deterministic;
  Record.gate "E-qps.alloc" alloc_pass;
  Record.gate "E-qps.perf" gate_pass

(* ------------------------------------------------------------------ *)
(* E-repair: incremental oracle repair vs scratch rebuild.             *)
(* ------------------------------------------------------------------ *)

(* Replays a mild churn trace (<= 8 events/epoch) through the engine
   and, per epoch, times Dist.repair chained from the previous oracle
   against an independent scratch Dist.build of the same snapshot.
   Every epoch both oracles keep the contract on sampled pairs
   ([Contract.check]: every answer in [exact, (1+eps) * exact], every
   searched answer exact, every route a walk of the answer's length;
   the two may anchor clusters differently, so the contract, not
   bit-equality, is compared).

   Gates: validity, and an aggregate repair speedup >= 1x vs scratch
   on multi-core boxes (a recorded waiver on 1 core, matching E-qps's
   oversubscription rule). The result becomes the "repair" member of
   the "oracle" record, so one artifact carries the whole oracle
   story. *)
let e_repair () =
  let n = if !quick then 1500 else 10_000 in
  let eps = 0.5 in
  let epochs = 12 in
  let batch_max = 8 in
  let alpha = 0.8 in
  let seed = 71 + n in
  let model = model_of ~seed ~n ~dim:2 ~alpha in
  let side =
    Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha ~degree:10.0
  in
  let trace =
    Ubg.Churn.generate ~seed:(seed + 3) ~epochs ~batch_max
      (Ubg.Churn.default_dynamics ~side)
      model
  in
  let params = Topo.Params.of_epsilon ~eps ~alpha ~dim:2 in
  let engine = Dynamic.Engine.create ~params model in
  let rand = Random.State.make [| seed; 0x4e9a1 |] in
  let sample_count = if !quick then 60 else 120 in
  let qws = Oracle.Dist.create_query_ws () in
  let checked = Contract.create ~eps in
  let checked_scratch = Contract.create ~eps in
  let reported = ref false in
  let prev =
    ref
      (Oracle.Dist.build ~eps
         (Dynamic.Engine.latest engine).Dynamic.Engine.snap_spanner)
  in
  let repairs = ref 0 and fallbacks = ref 0 in
  let scratch_total = ref 0.0 and repair_total = ref 0.0 in
  let per_epoch = ref [] in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E-repair: incremental oracle repair vs scratch (n = %d, eps = \
            %.2f, <= %d events/epoch)"
           n eps batch_max)
      ~columns:
        [ "epoch"; "events"; "dirty"; "affected"; "rows upd/srch"; "mode";
          "scratch ms"; "repair ms"; "speedup" ]
  in
  Array.iteri
    (fun i batch ->
      ignore (Dynamic.Engine.apply_batch engine batch);
      let snap = Dynamic.Engine.latest engine in
      let csr = snap.Dynamic.Engine.snap_spanner in
      let dirty = snap.Dynamic.Engine.snap_dirty in
      let t0 = Unix.gettimeofday () in
      let scratch = Oracle.Dist.build ~eps csr in
      let scratch_s = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      let r = Oracle.Dist.repair ~prev:!prev ~dirty csr in
      let repair_s = Unix.gettimeofday () -. t0 in
      scratch_total := !scratch_total +. scratch_s;
      repair_total := !repair_total +. repair_s;
      if r.Oracle.Dist.repaired then incr repairs else incr fallbacks;
      (* validity: both oracles keep the contract on sampled pairs *)
      let nv = Graph.Csr.n_vertices csr in
      for _ = 1 to sample_count do
        let u = Random.State.int rand nv and v = Random.State.int rand nv in
        List.iter
          (fun (name, c, o) ->
            match Contract.check c o qws csr u v with
            | Some what when not !reported ->
                reported := true;
                Printf.printf "   INVALID first at epoch %d, %s oracle: %s\n"
                  (i + 1) name what
            | Some _ | None -> ())
          [
            ("repaired", checked, r.Oracle.Dist.oracle);
            ("scratch", checked_scratch, scratch);
          ]
      done;
      let mode =
        if r.Oracle.Dist.repaired then "repair"
        else
          Printf.sprintf "scratch(%s)"
            (Option.value ~default:"?" r.Oracle.Dist.fallback)
      in
      Report.add_row t
        [
          Report.cell_i (i + 1);
          Report.cell_i (Array.length batch);
          Report.cell_i (Array.length dirty);
          Report.cell_i r.Oracle.Dist.affected_clusters;
          Printf.sprintf "%d/%d" r.Oracle.Dist.rows_updated
            r.Oracle.Dist.rows_searched;
          mode;
          Printf.sprintf "%.2f" (1e3 *. scratch_s);
          Printf.sprintf "%.2f" (1e3 *. repair_s);
          Printf.sprintf "%.2f" (scratch_s /. repair_s);
        ];
      per_epoch :=
        Obs.Json.(
          Obj
            [
              ("epoch", int (i + 1)); ("events", int (Array.length batch));
              ("dirty", int (Array.length dirty));
              ("affected", int r.Oracle.Dist.affected_clusters);
              ("rows_updated", int r.Oracle.Dist.rows_updated);
              ("rows_searched", int r.Oracle.Dist.rows_searched);
              ("repaired", Bool r.Oracle.Dist.repaired);
              ("scratch_s", Num scratch_s); ("repair_s", Num repair_s);
            ])
        :: !per_epoch;
      prev := r.Oracle.Dist.oracle)
    trace.Ubg.Churn.batches;
  Report.print t;
  let speedup = !scratch_total /. !repair_total in
  let limit = Record.by_cores [ (2, 1.0); (1, 0.0) ] in
  let waived = limit = 0.0 in
  let gate_pass = speedup >= limit in
  Printf.printf
    "   %d epochs: %d repaired, %d scratch fallbacks; totals scratch %.3f \
     s, repair %.3f s (speedup %.2fx)\n"
    epochs !repairs !fallbacks !scratch_total !repair_total speedup;
  let valid = Contract.pass checked && Contract.pass checked_scratch in
  Printf.printf
    "   validity on %d pairs/epoch: %s\n     repaired: %s\n     scratch: %s\n"
    sample_count
    (if valid then "PASS" else "FAIL")
    (Contract.summary checked) (Contract.summary checked_scratch);
  Printf.printf "   repair gate [speedup >= 1x%s]: %s (%.2fx)\n"
    (if waived then ", waived on 1 core" else "")
    (if gate_pass then "PASS" else "FAIL")
    speedup;
  let repair =
    Obs.Json.(
      Obj
        [
          ("n", int n); ("eps", Num eps); ("epochs", int epochs);
          ("batch_max", int batch_max); ("cores", int Record.cores);
          ("repairs", int !repairs); ("fallbacks", int !fallbacks);
          ("scratch_s_total", Num !scratch_total);
          ("repair_s_total", Num !repair_total); ("speedup", Num speedup);
          ("valid", Bool valid); ("contract", Contract.to_json checked);
          ("scratch_contract", Contract.to_json checked_scratch);
          ("gate", Obj [ ("pass", Bool gate_pass); ("waived", Bool waived) ]);
          ("per_epoch", Arr (List.rev !per_epoch));
        ])
  in
  let fields =
    match Record.read "oracle" with
    | Some (Obs.Json.Obj fields) -> List.remove_assoc "repair" fields
    | Some _ | None -> [ ("experiment", Obs.Json.Str "E-repair") ]
  in
  Record.write "oracle" (Obs.Json.Obj (fields @ [ ("repair", repair) ]));
  Record.gate "E-repair.valid" valid;
  Record.gate "E-repair.speedup" gate_pass

(* ------------------------------------------------------------------ *)
(* E-daemon: the serve daemon — ingest rate, concurrent qps, resume.   *)
(* ------------------------------------------------------------------ *)

(* Records a churn trace to disk, then exercises the `topoctl serve`
   runtime in-process three ways:

   - ingest: an unpaced daemon replays the whole tail (quit_at_tail)
     with checkpointing on; sustained events/s — churn apply + certify
     + oracle republish + checkpoints included — is the headline.
   - serve: a paced daemon ingests while two client domains hammer
     DIST over a fixed pair set. Every answer is epoch-stamped, and
     two answers for the same pair at the same epoch must be equal —
     the RCU-snapshot consistency the daemon advertises.
   - resume: a daemon restarted from a mid-history checkpoint must
     finish with a final checkpoint byte-identical to the
     uninterrupted run's (the kill/restart acceptance criterion).

   Emits the "daemon" record; consistency and resume are gates. *)
let e_daemon () =
  let n = if !quick then 300 else 10_000 in
  let epochs = if !quick then 30 else 120 in
  let batch_max = if !quick then 6 else 10 in
  let eps = 0.5 in
  let seed = 19 + n in
  let model = model_of ~seed ~n ~dim:2 ~alpha:0.8 in
  let side =
    Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha:0.8 ~degree:10.0
  in
  let trace =
    Ubg.Churn.generate ~seed ~epochs ~batch_max
      (Ubg.Churn.default_dynamics ~side)
      model
  in
  let events = Ubg.Churn.n_events trace in
  let dir = Filename.get_temp_dir_name () in
  let tmp name =
    Filename.concat dir (Printf.sprintf "topo_bench_%d_%s" (Unix.getpid ()) name)
  in
  let tracef = tmp "daemon.trace" in
  let cka = tmp "a.ck" and ckb = tmp "b.ck" in
  let sock = tmp "d.sock" in
  let cleanup () =
    List.iter
      (fun f -> if Sys.file_exists f then Sys.remove f)
      [ tracef; cka; ckb; cka ^ ".tmp"; ckb ^ ".tmp"; sock ]
  in
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  Ubg.Io.save_trace tracef trace;
  let base_cfg =
    Daemon.Runtime.default ~socket:sock ~source:(Daemon.Runtime.Tail tracef)
  in
  (* -- ingest throughput: unpaced, checkpointing on ------------------ *)
  let t0 = Unix.gettimeofday () in
  let sa =
    Daemon.Runtime.run
      { base_cfg with Daemon.Runtime.checkpoint = Some cka; quit_at_tail = true }
  in
  let ingest_wall = Unix.gettimeofday () -. t0 in
  let ev_per_s = float_of_int events /. ingest_wall in
  (* -- concurrent serving: paced ingest + two query domains ---------- *)
  let connect_retry () =
    let limit = Unix.gettimeofday () +. 30.0 in
    let rec go () =
      try Daemon.Client.connect sock
      with Unix.Unix_error _ when Unix.gettimeofday () < limit ->
        Unix.sleepf 0.01;
        go ()
    in
    go ()
  in
  let h =
    Daemon.Runtime.start
      { base_cfg with Daemon.Runtime.period = 0.01; quit_at_tail = true }
  in
  let stop_workers = Atomic.make false in
  let worker () =
    let pairs =
      [| (0, 1); (0, 5); (2, 7); (3, 4); (1, 6); (5, 7); (2, 3); (4, 6) |]
    in
    try
      let c = connect_retry () in
      let acc = ref [] and count = ref 0 in
      (try
         while not (Atomic.get stop_workers) do
           Array.iter
             (fun (u, v) ->
               let ep, d = Daemon.Client.dist c u v in
               acc := (u, v, ep, d) :: !acc;
               incr count)
             pairs
         done
       with _ -> ());
      (try Daemon.Client.close c with _ -> ());
      (!count, !acc)
    with _ -> (0, [])
  in
  let t1 = Unix.gettimeofday () in
  let workers = Array.init 2 (fun _ -> Domain.spawn worker) in
  let sserve = Daemon.Runtime.join h in
  Atomic.set stop_workers true;
  let results = Array.map Domain.join workers in
  let serve_wall = Unix.gettimeofday () -. t1 in
  let queries = Array.fold_left (fun a (c, _) -> a + c) 0 results in
  let qps = float_of_int queries /. serve_wall in
  (* Same pair + same epoch stamp => same distance, across workers. *)
  let answers : (int * int * int, float) Hashtbl.t = Hashtbl.create 4096 in
  let consistent = ref true in
  let epochs_seen = Hashtbl.create 64 in
  Array.iter
    (fun (_, acc) ->
      List.iter
        (fun (u, v, ep, d) ->
          Hashtbl.replace epochs_seen ep ();
          match Hashtbl.find_opt answers (u, v, ep) with
          | None -> Hashtbl.add answers (u, v, ep) d
          | Some d' -> if compare d d' <> 0 then consistent := false)
        acc)
    results;
  let epochs_observed = Hashtbl.length epochs_seen in
  (* -- resume fingerprint: restart from a mid-history checkpoint ----- *)
  let half = epochs / 2 in
  let params =
    Topo.Params.of_epsilon ~eps ~alpha:model.Model.alpha ~dim:2
  in
  let b = Dynamic.Engine.create ~params model in
  let events_half = ref 0 in
  Array.iteri
    (fun i batch ->
      if i < half then begin
        ignore (Dynamic.Engine.apply_batch b batch);
        events_half := !events_half + Array.length batch
      end)
    trace.Ubg.Churn.batches;
  Daemon.Checkpoint.save ~path:ckb ~events:!events_half b;
  let sb =
    Daemon.Runtime.run
      { base_cfg with Daemon.Runtime.checkpoint = Some ckb; quit_at_tail = true }
  in
  let identical = read_file cka = read_file ckb in
  (* -- report --------------------------------------------------------- *)
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "E-daemon: serve daemon (n = %d, %d epochs, %d events, eps = %.2f)"
           n epochs events eps)
      ~columns:[ "phase"; "work"; "wall s"; "rate"; "note" ]
  in
  Report.add_row t
    [
      "ingest (unpaced)";
      Printf.sprintf "%d ev" events;
      Printf.sprintf "%.3f" ingest_wall;
      Printf.sprintf "%.3g ev/s" ev_per_s;
      Printf.sprintf "%d checkpoints" sa.Daemon.Runtime.checkpoints_written;
    ];
  Report.add_row t
    [
      "serve (2 clients)";
      Printf.sprintf "%d req" queries;
      Printf.sprintf "%.3f" serve_wall;
      Printf.sprintf "%.3g qps" qps;
      Printf.sprintf "%d epochs seen, %s" epochs_observed
        (if !consistent then "consistent" else "INCONSISTENT");
    ];
  Report.add_row t
    [
      "resume @ epoch " ^ string_of_int half;
      Printf.sprintf "%d ev replayed"
        (sb.Daemon.Runtime.events_applied);
      "-";
      "-";
      (if identical then "checkpoint identical" else "DIFFERS");
    ];
  Report.print t;
  Record.write "daemon"
    Obs.Json.(
      Obj
        [
          ("experiment", Str "E-daemon");
          ( "config",
            Obj
              [
                ("n", int n); ("epochs", int epochs); ("events", int events);
                ("eps", Num eps); ("quick", Bool !quick);
              ] );
          ( "ingest",
            Obj
              [
                ("wall_s", Num ingest_wall); ("ev_per_s", Num ev_per_s);
                ("epochs", int sa.Daemon.Runtime.final_epoch);
                ("checkpoints", int sa.Daemon.Runtime.checkpoints_written);
              ] );
          ( "serve",
            Obj
              [
                ("window_s", Num serve_wall); ("queries", int queries);
                ("qps", Num qps); ("workers", int 2);
                ("requests_served", int sserve.Daemon.Runtime.requests_served);
                ("epochs_observed", int epochs_observed);
                ("consistent_per_epoch", Bool !consistent);
              ] );
          ( "resume",
            Obj
              [
                ("from_epoch", int half);
                ("epochs_replayed", int sb.Daemon.Runtime.epochs_applied);
                ("identical", Bool identical);
              ] );
        ]);
  Record.gate "E-daemon.consistent" !consistent;
  Record.gate "E-daemon.resume" identical

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per experiment's kernel.        *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  let open Bechamel in
  let n = 150 in
  let model = model_of ~seed:5 ~n ~dim:2 ~alpha:0.8 in
  let base = model.Model.graph in
  let spanner =
    (Relaxed_greedy.build_eps ~eps:0.5 model).Relaxed_greedy.spanner
  in
  let params = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:2 () in
  let w_prev = 0.3 in
  let cover =
    Topo.Cluster_cover.compute spanner
      ~radius:(params.Topo.Params.delta *. w_prev)
  in
  let h = Topo.Cluster_graph.build ~spanner ~cover ~w_prev in
  let frozen = Graph.Csr.of_wgraph spanner in
  let bin =
    Array.of_list
      (List.filter (fun (e : Wgraph.edge) -> e.w > w_prev) (Wgraph.edges base))
  in
  let small_model = model_of ~seed:6 ~n:80 ~dim:2 ~alpha:0.8 in
  let tests =
    [
      Test.make ~name:"E1-E3: relaxed greedy build (n=80)"
        (Staged.stage (fun () ->
             ignore (Relaxed_greedy.build_eps ~eps:0.5 small_model)));
      Test.make ~name:"E4: distributed build (n=80)"
        (Staged.stage (fun () ->
             ignore
               (Distrib.Dist_greedy.build_eps ~seed:1 ~eps:0.5 small_model)));
      Test.make ~name:"E5: query-edge selection (one phase, n=150)"
        (Staged.stage (fun () ->
             ignore
               (Topo.Query_select.select ~points:model.Ubg.Model.points
                  ~spanner:frozen ~cover ~params bin)));
      Test.make ~name:"E6: cluster graph construction (n=150)"
        (Staged.stage (fun () ->
             ignore (Topo.Cluster_graph.build ~spanner ~cover ~w_prev)));
      Test.make ~name:"E7: hop-bounded H-query"
        (Staged.stage (fun () ->
             ignore
               (Topo.Cluster_graph.sp_upto h ~max_hops:8 0 (n - 1) ~bound:1.0)));
      Test.make ~name:"E8: SEQ-GREEDY baseline (n=150)"
        (Staged.stage (fun () -> ignore (Topo.Seq_greedy.spanner base ~t:1.5)));
      Test.make ~name:"E8: yao baseline (n=150)"
        (Staged.stage (fun () ->
             ignore (Baselines.Cone_graphs.yao model ~cones:8)));
      Test.make ~name:"E8: gabriel baseline (n=150)"
        (Staged.stage (fun () ->
             ignore (Baselines.Proximity_graphs.gabriel model)));
      Test.make ~name:"E12: fault-tolerant greedy k=1 (n=80)"
        (Staged.stage (fun () ->
             ignore
               (Topo.Fault_tolerant.spanner small_model.Model.graph ~t:1.8
                  ~k:1)));
      Test.make ~name:"substrate: cluster cover (n=150)"
        (Staged.stage (fun () ->
             ignore
               (Topo.Cluster_cover.compute spanner
                  ~radius:(params.Topo.Params.delta *. w_prev))));
      Test.make ~name:"substrate: Dijkstra SSSP (n=150)"
        (Staged.stage (fun () -> ignore (Graph.Dijkstra.distances base 0)));
      Test.make ~name:"substrate: Kruskal MST (n=150)"
        (Staged.stage (fun () -> ignore (Graph.Mst.kruskal base)));
      Test.make ~name:"substrate: Luby MIS (n=150)"
        (Staged.stage (fun () -> ignore (Distrib.Mis.luby ~seed:3 base)));
      Test.make ~name:"substrate: Delaunay triangulation (n=150)"
        (Staged.stage (fun () ->
             ignore (Geometry.Delaunay.triangulate model.Model.points)));
      Test.make ~name:"E14: WSPD spanner (n=150)"
        (Staged.stage (fun () ->
             ignore (Baselines.Wspd.spanner ~t:2.0 model.Model.points)));
      Test.make ~name:"E15: GFG route on gabriel (n=150)"
        (let topology = Baselines.Proximity_graphs.gabriel model in
         Staged.stage (fun () ->
             ignore
               (Baselines.Planar_routing.gfg ~model ~topology ~src:0
                  ~dst:(n - 1))));
      Test.make ~name:"E18: doubling estimate (n=150)"
        (let apsp = Graph.Apsp.dijkstra_all spanner in
         Staged.stage (fun () ->
             ignore
               (Analysis.Doubling.estimate
                  ~dist:(fun i j -> apsp.(i).(j))
                  ~members:(Array.init n Fun.id) ~centers:[ 0; n / 2 ]
                  ~radii:[ 0.5; 2.0 ])));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if !quick then 0.1 else 0.4))
      ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table =
    Report.create ~title:"micro-benchmarks (OLS estimate per run)"
      ~columns:[ "benchmark"; "time/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw =
            Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt
          in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (v :: _) -> v
            | Some [] | None -> nan
          in
          let human =
            if Float.is_nan ns then "-"
            else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          let r2 =
            match Analyze.OLS.r_square est with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "-"
          in
          Report.add_row table [ Test.Elt.name elt; human; r2 ])
        (Test.elements test))
    tests;
  Report.print table

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18);
    ("E-csr", e_csr);
    ("E-scale", e_scale);
    ("E-churn", e_churn);
    ("E-obs", e_obs);
    ("E-compare", e_compare);
    ("E-qps", e_qps);
    ("E-repair", e_repair);
    ("E-daemon", e_daemon);
    ("micro", micro_benchmarks);
  ]

let () =
  let trace_file = ref (Sys.getenv_opt "TOPO_TRACE") in
  let args =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a ->
           if a = "quick" then begin
             quick := true;
             false
           end
           else if String.length a > 8 && String.sub a 0 8 = "--trace=" then begin
             trace_file := Some (String.sub a 8 (String.length a - 8));
             false
           end
           else true)
  in
  (match !trace_file with
  | Some path when path <> "" ->
      Obs.Trace.set_enabled true;
      at_exit (fun () ->
          Obs.Export.write_chrome path;
          Printf.eprintf "[trace: %d spans written to %s]\n"
            (Obs.Trace.n_events ()) path)
  | Some _ | None -> ());
  let selected =
    match args with
    | [] -> experiments
    | names -> List.filter (fun (name, _) -> List.mem name names) experiments
  in
  if selected = [] then begin
    prerr_endline "no matching experiment; known:";
    List.iter (fun (name, _) -> prerr_endline ("  " ^ name)) experiments;
    exit 1
  end;
  List.iter
    (fun (name, run) ->
      let t0 = Unix.gettimeofday () in
      run ();
      Printf.printf "   [%s finished in %.1f s]\n\n%!" name
        (Unix.gettimeofday () -. t0))
    selected;
  match List.rev !Record.failed with
  | [] -> ()
  | failed ->
      List.iter (fun g -> prerr_endline ("gate FAILED: " ^ g)) failed;
      exit 2
