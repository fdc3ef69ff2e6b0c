module Wgraph = Graph.Wgraph
module Dijkstra = Graph.Dijkstra

let disjoint_short_paths g ~u ~v ~budget ~want =
  let scratch = Wgraph.copy g in
  let rec extract found =
    if found >= want then found
    else
      match Dijkstra.path scratch u v with
      | None -> found
      | Some p ->
          if Graph.Path.length scratch p > budget then found
          else begin
            let rec drop = function
              | a :: (b :: _ as rest) ->
                  ignore (Wgraph.remove_edge scratch a b);
                  drop rest
              | [ _ ] | [] -> ()
            in
            drop p;
            extract (found + 1)
          end
  in
  extract 0

let spanner g ~t ~k =
  if t < 1.0 then invalid_arg "Fault_tolerant.spanner: t < 1";
  if k < 0 then invalid_arg "Fault_tolerant.spanner: k < 0";
  let out = Wgraph.create (Wgraph.n_vertices g) in
  let sorted = List.sort Wgraph.compare_edge (Wgraph.edges g) in
  List.iter
    (fun (e : Wgraph.edge) ->
      let budget = t *. e.w in
      let have =
        disjoint_short_paths out ~u:e.u ~v:e.v ~budget ~want:(k + 1)
      in
      if have < k + 1 then Wgraph.add_edge out e.u e.v e.w)
    sorted;
  out

let vertex_disjoint_short_paths g ~u ~v ~budget ~want =
  let scratch = Wgraph.copy g in
  let remove_vertex x =
    List.iter (fun (y, _) -> ignore (Wgraph.remove_edge scratch x y))
      (Wgraph.neighbors scratch x)
  in
  let rec extract found =
    if found >= want then found
    else
      match Dijkstra.path scratch u v with
      | None -> found
      | Some p ->
          if Graph.Path.length scratch p > budget then found
          else begin
            (* Delete interior vertices; endpoints stay usable. *)
            List.iter
              (fun x -> if x <> u && x <> v then remove_vertex x)
              p;
            (* The direct edge, if it was the path, must also go. *)
            (match p with
            | [ a; b ] -> ignore (Wgraph.remove_edge scratch a b)
            | _ -> ());
            extract (found + 1)
          end
  in
  extract 0

let vertex_spanner g ~t ~k =
  if t < 1.0 then invalid_arg "Fault_tolerant.vertex_spanner: t < 1";
  if k < 0 then invalid_arg "Fault_tolerant.vertex_spanner: k < 0";
  let out = Wgraph.create (Wgraph.n_vertices g) in
  let sorted = List.sort Wgraph.compare_edge (Wgraph.edges g) in
  List.iter
    (fun (e : Wgraph.edge) ->
      let budget = t *. e.w in
      let have =
        vertex_disjoint_short_paths out ~u:e.u ~v:e.v ~budget ~want:(k + 1)
      in
      if have < k + 1 then Wgraph.add_edge out e.u e.v e.w)
    sorted;
  out

let stretch_under_vertex_faults ~base ~spanner ~faults =
  let strip g =
    let g' = Wgraph.copy g in
    List.iter
      (fun x ->
        List.iter (fun (y, _) -> ignore (Wgraph.remove_edge g' x y))
          (Wgraph.neighbors g' x))
      faults;
    g'
  in
  let base' = strip base and spanner' = strip spanner in
  let worst = ref 1.0 in
  Wgraph.iter_edges base' (fun u v w ->
      let r = Dijkstra.distance spanner' u v /. w in
      if r > !worst then worst := r);
  !worst

let stretch_under_faults ~base ~spanner ~faults =
  let base' = Wgraph.copy base and spanner' = Wgraph.copy spanner in
  List.iter
    (fun (u, v) ->
      ignore (Wgraph.remove_edge base' u v);
      ignore (Wgraph.remove_edge spanner' u v))
    faults;
  (* A fault may disconnect the base graph itself; compare pairwise only
     where the faulted base still connects, per the fault-tolerant
     spanner definition G'[V] vs G[V]. *)
  let worst = ref 1.0 in
  Wgraph.iter_edges base' (fun u v w ->
      let d = Dijkstra.distance spanner' u v in
      let r = d /. w in
      if r > !worst then worst := r);
  !worst
