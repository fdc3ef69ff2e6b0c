module Wgraph = Graph.Wgraph
module Csr = Graph.Csr

let edge_stretch_csr ~base ~spanner =
  if Csr.n_vertices base <> Csr.n_vertices spanner then
    invalid_arg "Verify.edge_stretch_csr: vertex set mismatch";
  (* One search per source u with a base neighbor v > u. Slices are
     sorted, so those forward neighbors are a suffix of u's slice, and
     the search stops once the farthest of them is popped. Sources fan
     out over the pool; max is commutative, so the ordered fold is
     bit-identical at any pool size. *)
  let forward u =
    let lo = ref base.Csr.off.(u + 1) in
    while !lo > base.Csr.off.(u) && base.Csr.dst.(!lo - 1) > u do
      decr lo
    done;
    !lo
  in
  let sources = ref [] in
  for u = Csr.n_vertices base - 1 downto 0 do
    if forward u < base.Csr.off.(u + 1) then sources := u :: !sources
  done;
  let per_source =
    Parallel.Pool.map
      (fun u ->
        let lo = forward u in
        let targets = Array.sub base.Csr.dst lo (base.Csr.off.(u + 1) - lo) in
        let dist = Graph.Dijkstra.distances_to_csr spanner u ~targets in
        let worst = ref 1.0 in
        Array.iteri
          (fun i d -> worst := Float.max !worst (d /. base.Csr.wgt.(lo + i)))
          dist;
        !worst)
      (Array.of_list !sources)
  in
  Array.fold_left Float.max 1.0 per_source

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
