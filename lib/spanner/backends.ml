module Model = Ubg.Model

let plain ~name ?stretch spanner =
  {
    Backend.backend = name;
    spanner;
    advertised_stretch = stretch;
    phases = [];
    rounds = 0;
    messages = 0;
    build_seconds = 0.0;
  }

(* The input graph in the requested weight space. Reweighting always
   copies, so backends may mutate the result freely. *)
let input_graph ?metric model =
  Model.reweight model
    (match metric with Some m -> m | None -> Geometry.Metric.Euclidean)

module Relaxed = struct
  let name = "relaxed"

  let description =
    "relaxed greedy (1+eps)-spanner of this paper (Sections 2-3)"

  let capabilities =
    {
      Backend.incremental = true;
      localized = false;
      metric_aware = true;
      subgraph = true;
    }

  let build ?metric ~params model =
    let r = Topo.Relaxed_greedy.build ?metric ~params model in
    {
      (plain ~name ~stretch:params.Topo.Params.t
         r.Topo.Relaxed_greedy.spanner)
      with
      phases = r.Topo.Relaxed_greedy.stats;
    }
end

module Seq_greedy_b = struct
  let name = "seq-greedy"

  let description =
    "classical greedy spanner (Althofer et al.; paper Section 1.4)"

  let capabilities =
    {
      Backend.incremental = false;
      localized = false;
      metric_aware = true;
      subgraph = true;
    }

  let build ?metric ~params model =
    let g = input_graph ?metric model in
    let s = Topo.Seq_greedy.spanner g ~t:params.Topo.Params.t in
    plain ~name ~stretch:params.Topo.Params.t s
end

module Dp_quasi = struct
  let name = "dp-quasi"

  let description =
    "Damian-Pemmaraju localized quasi-UDG (1+eps)-spanner (arXiv \
     0806.4221)"

  let capabilities =
    {
      Backend.incremental = false;
      localized = true;
      metric_aware = false;
      subgraph = true;
    }

  let build ?metric:_ ~params model =
    let r = Distrib.Dp_spanner.build ~params model in
    {
      (plain ~name ~stretch:params.Topo.Params.t
         r.Distrib.Dp_spanner.spanner)
      with
      rounds = r.Distrib.Dp_spanner.rounds;
      messages = r.Distrib.Dp_spanner.messages;
    }
end

let ft_greedy ~k : Backend.t =
  (module struct
    let name = "ft-greedy"

    let description =
      Printf.sprintf
        "%d-edge-fault-tolerant greedy (Section 1.6.1 extension)" k

    let capabilities =
      {
        Backend.incremental = false;
        localized = false;
        metric_aware = true;
        subgraph = true;
      }

    let build ?metric ~params model =
      let g = input_graph ?metric model in
      let s = Topo.Fault_tolerant.spanner g ~t:params.Topo.Params.t ~k in
      plain ~name ~stretch:params.Topo.Params.t s
  end)

module Lmst_b = struct
  let name = "lmst"
  let description = "Local MST, symmetric variant (Li-Hou-Sha)"

  let capabilities =
    {
      Backend.incremental = false;
      localized = true;
      metric_aware = false;
      subgraph = true;
    }

  let build ?metric:_ ~params:_ model =
    plain ~name (Baselines.Lmst.build model)
end

module Xtc_b = struct
  let name = "xtc"

  let description =
    "XTC topology control (Wattenhofer-Zollinger, reference [19])"

  let capabilities =
    {
      Backend.incremental = false;
      localized = true;
      metric_aware = false;
      subgraph = true;
    }

  let build ?metric:_ ~params:_ model =
    plain ~name (Baselines.Xtc.build model)
end

let cones = 8

module Yao_b = struct
  let name = "yao"
  let description = "Yao graph, 8 cones (reference [20])"

  let capabilities =
    {
      Backend.incremental = false;
      localized = true;
      metric_aware = false;
      subgraph = true;
    }

  let build ?metric:_ ~params:_ model =
    plain ~name (Baselines.Cone_graphs.yao model ~cones)
end

module Theta_b = struct
  let name = "theta"
  let description = "Theta graph, 8 cones (reference [20])"

  let capabilities =
    {
      Backend.incremental = false;
      localized = true;
      metric_aware = false;
      subgraph = true;
    }

  let build ?metric:_ ~params:_ model =
    plain ~name (Baselines.Cone_graphs.theta model ~cones)
end

module Wspd_b = struct
  let name = "wspd"

  let description =
    "WSPD t-spanner of the complete graph (Callahan-Kosaraju; not a \
     UBG subgraph)"

  let capabilities =
    {
      Backend.incremental = false;
      localized = false;
      metric_aware = false;
      subgraph = false;
    }

  let build ?metric:_ ~params model =
    let s =
      Baselines.Wspd.spanner ~t:params.Topo.Params.t
        model.Model.points
    in
    plain ~name ~stretch:params.Topo.Params.t s
end

let () =
  List.iter Backend.register
    [
      (module Relaxed : Backend.S);
      (module Seq_greedy_b);
      (module Dp_quasi);
      ft_greedy ~k:1;
      (module Lmst_b);
      (module Xtc_b);
      (module Yao_b);
      (module Theta_b);
      (module Wspd_b);
    ]

let ensure () = ()
