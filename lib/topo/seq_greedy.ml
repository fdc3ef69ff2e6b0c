module Wgraph = Graph.Wgraph
module Dijkstra = Graph.Dijkstra

let process_sorted_edges edges ~t ~into =
  (* One bounded Dijkstra per candidate edge; the calling domain's
     workspace spares the O(n) dist allocation each would pay. *)
  let ws = Dijkstra.domain_workspace () in
  List.iter
    (fun (e : Wgraph.edge) ->
      let budget = t *. e.w in
      let d = Dijkstra.distance_upto_ws ws into e.u e.v ~bound:budget in
      if d > budget then Wgraph.add_edge into e.u e.v e.w)
    edges;
  into

let sorted_edges g = List.sort Wgraph.compare_edge (Wgraph.edges g)

let spanner_into g ~t ~into =
  if t < 1.0 then invalid_arg "Seq_greedy: t < 1";
  if Wgraph.n_vertices into <> Wgraph.n_vertices g then
    invalid_arg "Seq_greedy.spanner_into: vertex set mismatch";
  process_sorted_edges (sorted_edges g) ~t ~into

let spanner g ~t = spanner_into g ~t ~into:(Wgraph.create (Wgraph.n_vertices g))

let clique_spanner ~points ~members ~metric ~t ~into =
  if t < 1.0 then invalid_arg "Seq_greedy.clique_spanner: t < 1";
  let edges = ref [] in
  let rec pairs = function
    | [] -> ()
    | u :: rest ->
        List.iter
          (fun v ->
            let w = Geometry.Metric.weight metric points.(u) points.(v) in
            if w > 0.0 then edges := { Wgraph.u; v; w } :: !edges)
          rest;
        pairs rest
  in
  pairs members;
  ignore (process_sorted_edges (List.sort Wgraph.compare_edge !edges) ~t ~into)

(* The pure sibling of [clique_spanner]: greedy over the clique runs on
   a k-vertex graph local to the component, so components can be
   processed on separate domains without touching a shared spanner.
   Sorting compares through the member ids, exactly the global-id order
   [clique_spanner] uses, and phase-0 greedy paths never leave the
   component (its vertices are disconnected from the rest of the
   partial spanner), so the kept set is identical to running
   [clique_spanner] into the shared graph. *)
let clique_spanner_edges ~points ~members ~metric ~t =
  if t < 1.0 then invalid_arg "Seq_greedy.clique_spanner_edges: t < 1";
  let members = Array.of_list members in
  let k = Array.length members in
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let w =
        Geometry.Metric.weight metric points.(members.(i)) points.(members.(j))
      in
      if w > 0.0 then edges := { Wgraph.u = i; v = j; w } :: !edges
    done
  done;
  let sorted =
    List.sort
      (fun (a : Wgraph.edge) b ->
        compare
          (a.w, members.(a.u), members.(a.v))
          (b.w, members.(b.u), members.(b.v)))
      !edges
  in
  let local = process_sorted_edges sorted ~t ~into:(Wgraph.create k) in
  List.map
    (fun (e : Wgraph.edge) ->
      { e with Wgraph.u = members.(e.u); v = members.(e.v) })
    (Wgraph.edges local)
