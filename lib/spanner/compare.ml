module Model = Ubg.Model
module Metrics = Analysis.Metrics
module Report = Analysis.Report

type row = {
  backend : Backend.t;
  result : Backend.result;
  summary : Metrics.summary;
  t_ok : bool option;
}

let run ?metric ?mode ?backends ~params model =
  let backends =
    match backends with Some bs -> bs | None -> Backend.all ()
  in
  let base =
    Model.reweight model
      (match metric with Some m -> m | None -> Geometry.Metric.Euclidean)
  in
  List.map
    (fun b ->
      let result = Backend.build b ?metric ?mode ~params model in
      let summary = Metrics.summarize ~base result.Backend.spanner in
      let t_ok =
        Option.map
          (fun t -> summary.Metrics.edge_stretch <= t +. 1e-9)
          result.Backend.advertised_stretch
      in
      { backend = b; result; summary; t_ok })
    backends

let table ~title rows =
  let report =
    Report.create ~title
      ~columns:
        [
          "backend";
          "edges";
          "maxdeg";
          "stretch";
          "t-ok";
          "w/MST";
          "power";
          "rounds";
          "msgs";
          "build-s";
        ]
  in
  List.iter
    (fun { backend = b; result = r; summary = s; t_ok } ->
      Report.add_row report
        [
          Backend.name b;
          Report.cell_i s.Metrics.n_edges;
          Report.cell_i s.Metrics.max_degree;
          Report.cell_f s.Metrics.edge_stretch;
          (match t_ok with
          | None -> "-"
          | Some true -> "yes"
          | Some false -> "NO");
          Report.cell_f s.Metrics.mst_ratio;
          Report.cell_f s.Metrics.power_ratio;
          Report.cell_i r.Backend.rounds;
          Report.cell_i r.Backend.messages;
          Report.cell_f r.Backend.build_seconds;
        ])
    rows;
  report

let to_json ~params ~model rows =
  let open Obs.Json in
  let backend { backend = bk; result = r; summary = s; t_ok } =
    let caps = Backend.capabilities bk in
    let opt f = Option.fold ~none:Null ~some:f in
    Obj
      [
        ("name", Str (Backend.name bk));
        ("incremental", Bool caps.Backend.incremental);
        ("localized", Bool caps.Backend.localized);
        ("subgraph", Bool caps.Backend.subgraph);
        ("edges", int s.Metrics.n_edges);
        ("max_degree", int s.Metrics.max_degree);
        ("stretch", Num s.Metrics.edge_stretch);
        ( "advertised_stretch",
          opt (fun t -> Num t) r.Backend.advertised_stretch );
        ("t_ok", opt (fun ok -> Bool ok) t_ok);
        ("mst_ratio", Num s.Metrics.mst_ratio);
        ("power_ratio", Num s.Metrics.power_ratio);
        ("rounds", int r.Backend.rounds); ("messages", int r.Backend.messages);
        ("build_seconds", Num r.Backend.build_seconds);
      ]
  in
  Obj
    [
      ("n", int (Model.n model)); ("dim", int (Model.dim model));
      ("alpha", Num model.Model.alpha); ("t", Num params.Topo.Params.t);
      ("backends", Arr (List.map backend rows));
    ]

let set_gauges rows =
  let set name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge name) v
  in
  List.iter
    (fun { backend = bk; result = r; summary = s; t_ok = _ } ->
      let p q = Printf.sprintf "compare.%s.%s" (Backend.name bk) q in
      set (p "edges") (float_of_int s.Metrics.n_edges);
      set (p "max_degree") (float_of_int s.Metrics.max_degree);
      set (p "stretch") s.Metrics.edge_stretch;
      set (p "mst_ratio") s.Metrics.mst_ratio;
      set (p "power_ratio") s.Metrics.power_ratio;
      set (p "rounds") (float_of_int r.Backend.rounds);
      set (p "messages") (float_of_int r.Backend.messages);
      set (p "build_s") r.Backend.build_seconds)
    rows
