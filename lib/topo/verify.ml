module Wgraph = Graph.Wgraph
module Csr = Graph.Csr

let check_sizes name ~base ~spanner =
  if Csr.n_vertices base <> Csr.n_vertices spanner then
    invalid_arg (name ^ ": vertex set mismatch")

(* One search from [u] in [spanner], with u's forward base neighbours
   (those v > u) as targets. Slices are sorted, so they are a suffix of
   u's slice, and the search stops once the farthest of them is
   popped. *)
let source_stretch ~base ~spanner u =
  check_sizes "Verify.source_stretch" ~base ~spanner;
  let hi = base.Csr.off.(u + 1) in
  let lo = ref hi in
  while !lo > base.Csr.off.(u) && base.Csr.dst.(!lo - 1) > u do
    decr lo
  done;
  let lo = !lo in
  if lo = hi then 1.0
  else begin
    let targets = Array.sub base.Csr.dst lo (hi - lo) in
    let dist = Graph.Dijkstra.distances_to_csr spanner u ~targets in
    let worst = ref 1.0 in
    for i = 0 to hi - lo - 1 do
      worst := Float.max !worst (dist.(i) /. base.Csr.wgt.(lo + i))
    done;
    !worst
  end

(* Sources fan out over the pool, each writing its own slot. *)
let source_stretches ~base ~spanner =
  check_sizes "Verify.source_stretches" ~base ~spanner;
  Parallel.Pool.map
    (source_stretch ~base ~spanner)
    (Array.init (Csr.n_vertices base) Fun.id)

(* Max is commutative, so the fold is bit-identical at any pool size. *)
let edge_stretch_csr ~base ~spanner =
  Array.fold_left Float.max 1.0 (source_stretches ~base ~spanner)

let is_t_spanner_csr ~base ~spanner ~t =
  edge_stretch_csr ~base ~spanner <= t +. 1e-9

let edge_stretch ~base ~spanner =
  if Wgraph.n_vertices base <> Wgraph.n_vertices spanner then
    invalid_arg "Verify.edge_stretch: vertex set mismatch";
  edge_stretch_csr ~base:(Csr.of_wgraph base) ~spanner:(Csr.of_wgraph spanner)

let is_t_spanner ~base ~spanner ~t = edge_stretch ~base ~spanner <= t +. 1e-9

let exact_stretch ~base ~spanner =
  Graph.Apsp.max_ratio
    ~num:(Graph.Apsp.dijkstra_all spanner)
    ~den:(Graph.Apsp.dijkstra_all base)

let check (result : Relaxed_greedy.result) ~model =
  let spanner = result.Relaxed_greedy.spanner in
  let base = model.Ubg.Model.graph in
  Wgraph.iter_edges spanner (fun u v _ ->
      if not (Wgraph.mem_edge base u v) then
        failwith
          (Printf.sprintf "Verify.check: spanner edge {%d,%d} not in input" u v));
  (* Stretch is measured in the weight space the spanner was built in;
     on a Euclidean build the model graph is that space. *)
  let stretch = edge_stretch ~base ~spanner in
  let t = result.Relaxed_greedy.params.Params.t in
  if stretch > t +. 1e-9 then
    failwith (Printf.sprintf "Verify.check: stretch %g exceeds t = %g" stretch t);
  let ratio = Wgraph.total_weight spanner /. Graph.Mst.weight base in
  (stretch, Wgraph.max_degree spanner, ratio)
