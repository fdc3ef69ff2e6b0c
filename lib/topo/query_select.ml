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
   that Lemma 3 requires. The test is a first-order loop over u's slice
   that stops at the first covering z: [Point.distance z v],
   [Point.distance u z] and [Point.angle ~apex:u v z] written out, the
   same float operations in the same order, so an arc allocates no
   boxed float and no vector. *)
let covered_at ~(points : Point.t array) ~spanner ~params ~pivot ~far ~len =
  let p = (points.(pivot) :> float array) and q = (points.(far) :> float array) in
  let dim = Array.length p in
  let alpha = params.Params.alpha and theta = params.Params.theta in
  let covered = ref false and k = ref spanner.Csr.off.(pivot) in
  let hi = spanner.Csr.off.(pivot + 1) in
  while (not !covered) && !k < hi do
    let z = spanner.Csr.dst.(!k) in
    if z <> far then begin
      let r = (points.(z) :> float array) in
      if Array.length r <> dim || Array.length q <> dim then
        invalid_arg "Point: dimension mismatch";
      let zv = ref 0.0 in
      for i = 0 to dim - 1 do
        let d = r.(i) -. q.(i) in
        zv := !zv +. (d *. d)
      done;
      if sqrt !zv <= alpha then begin
        let uz = ref 0.0 in
        for i = 0 to dim - 1 do
          let d = p.(i) -. r.(i) in
          uz := !uz +. (d *. d)
        done;
        if sqrt !uz <= len then begin
          (* The wedge at u between a = v - u and b = z - u. *)
          let aa = ref 0.0 and bb = ref 0.0 and ab = ref 0.0 in
          for i = 0 to dim - 1 do
            let a = q.(i) -. p.(i) and b = r.(i) -. p.(i) in
            aa := !aa +. (a *. a);
            bb := !bb +. (b *. b);
            ab := !ab +. (a *. b)
          done;
          let na = sqrt !aa and nb = sqrt !bb in
          if na = 0.0 || nb = 0.0 then
            invalid_arg "Point.angle: degenerate wedge";
          let c = !ab /. (na *. nb) in
          let c = if c > 1.0 then 1.0 else if c < -1.0 then -1.0 else c in
          if acos c <= theta then covered := true
        end
      end
    end;
    incr k
  done;
  !covered

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
