module Point = Geometry.Point
module Wgraph = Graph.Wgraph

type t = { alpha : float; points : Point.t array; graph : Wgraph.t }

let tolerance = 1e-9

let validate ~alpha points ~n_vertices ~iter_edges ~mem_edge =
  (* Written positively, so that a NaN alpha fails too. *)
  if not (alpha > 0.0 && alpha <= 1.0) then Error "alpha out of (0, 1]"
  else begin
    let n = Array.length points in
    if n = 0 then Error "no points"
    else if n_vertices <> n then Error "graph size mismatch"
    else begin
      let dim = Point.dim points.(0) in
      if Array.exists (fun p -> Point.dim p <> dim) points then
        Error "mixed dimensions"
      else begin
        let bad = ref None in
        (* Every edge: within unit distance and weighted by distance. *)
        iter_edges (fun u v w ->
            let d = Point.distance points.(u) points.(v) in
            if d > 1.0 +. tolerance then
              bad := Some (Printf.sprintf "edge {%d,%d} longer than 1" u v)
            else if abs_float (w -. d) > tolerance then
              bad :=
                Some (Printf.sprintf "edge {%d,%d} weight %g <> distance %g" u v w d));
        (* Every close pair: must be an edge. Grid-accelerated. *)
        (match !bad with
        | Some _ -> ()
        | None ->
            let grid = Geometry.Grid.build ~cell:(max alpha 1e-6) points in
            Geometry.Grid.iter_close_pairs grid ~radius:alpha (fun i j _ ->
                if not (mem_edge i j) then
                  bad := Some (Printf.sprintf "missing short edge {%d,%d}" i j)));
        match !bad with Some msg -> Error msg | None -> Ok ()
      end
    end
  end

let validate_graph ~alpha points graph =
  validate ~alpha points ~n_vertices:(Wgraph.n_vertices graph)
    ~iter_edges:(Wgraph.iter_edges graph)
    ~mem_edge:(fun u v -> Wgraph.mem_edge graph u v)

let make ~alpha points graph =
  match validate_graph ~alpha points graph with
  | Ok () -> { alpha; points; graph }
  | Error msg -> invalid_arg ("Ubg.Model.make: " ^ msg)

let n t = Array.length t.points
let dim t = Point.dim t.points.(0)
let distance t u v = Point.distance t.points.(u) t.points.(v)
let angle t ~apex u v = Point.angle ~apex:t.points.(apex) t.points.(u) t.points.(v)
let check t = validate_graph ~alpha:t.alpha t.points t.graph

let reweight t metric =
  Geometry.Metric.validate metric;
  let g = Wgraph.create (n t) in
  Wgraph.iter_edges t.graph (fun u v w ->
      Wgraph.add_edge g u v (Geometry.Metric.of_distance metric w));
  g

let pp ppf t =
  Format.fprintf ppf "alpha-UBG: n=%d d=%d alpha=%g m=%d" (n t) (dim t)
    t.alpha (Wgraph.n_edges t.graph)
