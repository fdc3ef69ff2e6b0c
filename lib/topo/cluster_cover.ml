module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra

type t = {
  radius : float;
  centers : int array;
  center_of : int array;
  dist_to_center : float array;
  members : (int, int list) Hashtbl.t;
}

let pack ~radius ~centers ~center_of ~dist_to_center =
  let members = Hashtbl.create (List.length centers) in
  Array.iteri
    (fun v c ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt members c) in
      Hashtbl.replace members c (v :: cur))
    center_of;
  {
    radius;
    centers = Array.of_list (List.rev centers);
    center_of;
    dist_to_center;
    members;
  }

let compute_csr j ~radius =
  if radius < 0.0 then invalid_arg "Cluster_cover.compute: radius < 0";
  let n = Csr.n_vertices j in
  let center_of = Array.make n (-1) in
  let dist_to_center = Array.make n infinity in
  let centers = ref [] in
  (* Each ball's members depend on all earlier claims, so this greedy
     stays sequential; the workspace removes the O(n) allocation a
     fresh ball search would otherwise pay. *)
  let ws = Dijkstra.domain_workspace () in
  for v = 0 to n - 1 do
    if center_of.(v) = -1 then begin
      centers := v :: !centers;
      (* Claim every still-uncovered vertex within the radius ball; the
         ball is measured in the full graph, per Section 2.2.1. *)
      List.iter
        (fun (x, d) ->
          if center_of.(x) = -1 then begin
            center_of.(x) <- v;
            dist_to_center.(x) <- d
          end)
        (Dijkstra.within_csr_ws ws j v ~bound:radius)
    end
  done;
  pack ~radius ~centers:!centers ~center_of ~dist_to_center

let compute j ~radius = compute_csr (Csr.of_wgraph j) ~radius

(* The oracle's radius-doubling loop wants to bail out of a too-fine
   cover early instead of paying for all n singleton balls, and reads
   nothing but the centers. Isolated vertices stay out of the landmark
   set (a dead slot in a capacity-indexed snapshot would otherwise cost
   a k x k matrix row); their singleton balls claim nothing else, so
   the other centers are [compute_csr]'s, in the same order. *)
let compute_csr_limited j ~radius ~max_clusters =
  if radius < 0.0 then invalid_arg "Cluster_cover.compute: radius < 0";
  if max_clusters < 1 then
    invalid_arg "Cluster_cover.compute_csr_limited: max_clusters < 1";
  let n = Csr.n_vertices j in
  let covered = Array.make n false in
  let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
  let centers = ref [] in
  let n_centers = ref 0 in
  let ws = Dijkstra.domain_workspace () in
  let v = ref 0 in
  while !n_centers <= max_clusters && !v < n do
    let u = !v in
    if (not covered.(u)) && Csr.degree j u > 0 then begin
      centers := u :: !centers;
      incr n_centers;
      if !n_centers <= max_clusters then begin
        let cnt = Dijkstra.within_csr_into ws j u ~bound:radius ~out_v ~out_d in
        for i = 0 to cnt - 1 do
          covered.(out_v.(i)) <- true
        done
      end
    end;
    incr v
  done;
  if !n_centers > max_clusters then None
  else Some (Array.of_list (List.rev !centers))

let of_centers_csr j ~radius ~centers =
  if radius < 0.0 then invalid_arg "Cluster_cover.of_centers: radius < 0";
  let n = Csr.n_vertices j in
  let center_of = Array.make n (-1) in
  let dist_to_center = Array.make n infinity in
  (* Prescribed centers are independent, so their balls run on the
     pool; the claim merge below stays in center order, with the same
     tie-break, so the cover is identical to the sequential one. *)
  let centers_arr = Array.of_list centers in
  let balls =
    Parallel.Pool.map
      (fun c ->
        Dijkstra.within_csr_ws (Dijkstra.domain_workspace ()) j c
          ~bound:radius)
      centers_arr
  in
  Array.iteri
    (fun i c ->
      List.iter
        (fun (x, d) ->
          let better =
            d < dist_to_center.(x)
            || (d = dist_to_center.(x) && c < center_of.(x))
          in
          if better then begin
            center_of.(x) <- c;
            dist_to_center.(x) <- d
          end)
        balls.(i))
    centers_arr;
  Array.iteri
    (fun v c ->
      if c = -1 then
        invalid_arg
          (Printf.sprintf "Cluster_cover.of_centers: vertex %d uncovered" v))
    center_of;
  pack ~radius ~centers:(List.rev centers) ~center_of ~dist_to_center

let of_centers j ~radius ~centers =
  of_centers_csr (Csr.of_wgraph j) ~radius ~centers

let n_clusters ~c = Array.length c.centers

let is_valid j c =
  let j = Csr.of_wgraph j in
  let n = Csr.n_vertices j in
  let eps = 1e-9 in
  let ok = ref (n = Array.length c.center_of) in
  (* Coverage + radius + recorded distances are genuine sp values. *)
  Array.iter
    (fun center ->
      let dist =
        let table = Hashtbl.create 64 in
        List.iter
          (fun (x, d) -> Hashtbl.replace table x d)
          (Dijkstra.within_csr j center ~bound:c.radius);
        table
      in
      List.iter
        (fun v ->
          match Hashtbl.find_opt dist v with
          | Some d ->
              if abs_float (d -. c.dist_to_center.(v)) > eps then ok := false
          | None -> ok := false)
        (Option.value ~default:[] (Hashtbl.find_opt c.members center)))
    c.centers;
  for v = 0 to n - 1 do
    if c.center_of.(v) < 0 then ok := false;
    if c.dist_to_center.(v) > c.radius +. eps then ok := false
  done;
  (* Center separation: no center inside another center's ball. *)
  let center_set = Hashtbl.create 16 in
  Array.iter (fun u -> Hashtbl.add center_set u ()) c.centers;
  Array.iter
    (fun u ->
      List.iter
        (fun (x, _) -> if x <> u && Hashtbl.mem center_set x then ok := false)
        (Dijkstra.within_csr j u ~bound:c.radius))
    c.centers;
  !ok
