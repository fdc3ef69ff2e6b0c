module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
module Point = Geometry.Point

type selection = {
  query_edges : Wgraph.edge array;
  n_bin_edges : int;
  n_covered : int;
  n_candidates : int;
  max_queries_per_cluster : int;
}

(* One side of the covered test: a spanner edge {u, z} with z close to v
   and a narrow wedge at u. |uz| <= |uv| always holds here because
   spanner edges come from earlier bins, but we keep the explicit check
   that Lemma 3 requires. *)
let covered_at ~points ~spanner ~params ~pivot ~far ~len =
  let dist a b = Point.distance points.(a) points.(b) in
  Csr.fold_neighbors spanner pivot
    (fun z _ acc ->
      acc
      || (z <> far
         && dist z far <= params.Params.alpha
         && dist pivot z <= len
         && Point.angle ~apex:points.(pivot) points.(far) points.(z)
            <= params.Params.theta))
    false

let is_covered ~points ~spanner ~params ~u ~v ~len =
  covered_at ~points ~spanner ~params ~pivot:u ~far:v ~len
  || covered_at ~points ~spanner ~params ~pivot:v ~far:u ~len

let select ?(weight_of_len = fun len -> len) ~points ~spanner ~cover ~params
    bin_edges =
  let n_bin_edges = Array.length bin_edges in
  let n_covered = ref 0 in
  (* The covered test is the expensive half (a cone scan of the frozen
     spanner's adjacency per endpoint) and each edge's verdict is
     independent, so it fans out over the pool, each verdict landing in
     its own slot of one preallocated flat array. The minimizer of
     inequality (1), t|xy| - sp(a,x) - sp(b,y), then folds the
     per-edge flags in array order — the same scan, and therefore the
     same tie-breaks, as the sequential single pass. *)
  let covered = Array.make n_bin_edges false in
  Parallel.Pool.parallel_for n_bin_edges (fun i ->
      let (e : Wgraph.edge) = bin_edges.(i) in
      covered.(i) <-
        is_covered ~points ~spanner ~params ~u:e.u ~v:e.v ~len:e.w);
  let best = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Wgraph.edge) ->
      if covered.(i) then incr n_covered
      else begin
        let a = cover.Cluster_cover.center_of.(e.u)
        and b = cover.Cluster_cover.center_of.(e.v) in
        (* Bin edges are longer than the cover diameter, so endpoints lie
           in distinct clusters; degenerate instances could violate the
           precondition, in which case the edge needs no query at all. *)
        if a <> b then begin
          let score =
            (params.Params.t *. weight_of_len e.w)
            -. cover.Cluster_cover.dist_to_center.(e.u)
            -. cover.Cluster_cover.dist_to_center.(e.v)
          in
          let key = (min a b, max a b) in
          match Hashtbl.find_opt best key with
          | Some (score', _) when score' <= score -> ()
          | Some _ | None -> Hashtbl.replace best key (score, e)
        end
      end)
    bin_edges;
  let query_edges =
    Array.of_list (Hashtbl.fold (fun _ (_, e) acc -> e :: acc) best [])
  in
  let per_cluster = Hashtbl.create 64 in
  let bump c =
    Hashtbl.replace per_cluster c
      (1 + Option.value ~default:0 (Hashtbl.find_opt per_cluster c))
  in
  Hashtbl.iter
    (fun (a, b) _ ->
      bump a;
      bump b)
    best;
  let max_queries_per_cluster =
    Hashtbl.fold (fun _ k acc -> max k acc) per_cluster 0
  in
  {
    query_edges;
    n_bin_edges;
    n_covered = !n_covered;
    n_candidates = n_bin_edges - !n_covered;
    max_queries_per_cluster;
  }
