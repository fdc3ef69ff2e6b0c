module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra

type t = {
  radius : float;
  centers : int array;
  center_of : int array;
  dist_to_center : float array;
}

let compute_csr j ~radius =
  if radius < 0.0 then invalid_arg "Cluster_cover.compute: radius < 0";
  let n = Csr.n_vertices j in
  let center_of = Array.make n (-1) in
  let dist_to_center = Array.make n infinity in
  let k = ref 0 in
  (* Each ball's members depend on all earlier claims, so this greedy
     stays sequential; the domain's workspace and ball buffers remove
     the O(n) allocation a fresh ball search would otherwise pay, and
     the buffers the list it would return. *)
  let ws = Dijkstra.domain_workspace () in
  let out_v, out_d = Dijkstra.domain_ball_buffers n in
  let off = j.Csr.off and wgt = j.Csr.wgt in
  for v = 0 to n - 1 do
    if center_of.(v) = -1 then begin
      incr k;
      (* A center all of whose arcs are longer than the radius is its
         ball alone: the search would settle it at 0 and store nothing
         else (the same test as its relaxation). At a phase's radius
         delta W_{i-1} that is nearly every center, so they skip the
         search. *)
      let alone = ref true in
      for q = off.(v) to off.(v + 1) - 1 do
        if not (wgt.(q) > radius) then alone := false
      done;
      if !alone then begin
        center_of.(v) <- v;
        dist_to_center.(v) <- 0.0
      end
      else begin
        (* Claim every still-uncovered vertex within the radius ball;
           the ball is measured in the full graph, per Section 2.2.1. *)
        let cnt =
          Dijkstra.within_csr_into ws j v ~bound:radius ~out_v ~out_d
        in
        for i = 0 to cnt - 1 do
          let x = out_v.(i) in
          if center_of.(x) = -1 then begin
            center_of.(x) <- v;
            dist_to_center.(x) <- out_d.(i)
          end
        done
      end
    end
  done;
  (* A center claims itself first, so the centers are exactly the
     vertices that are their own center, in creation (id) order. *)
  let centers = Array.make !k 0 and i = ref 0 in
  Array.iteri
    (fun v a ->
      if a = v then begin
        centers.(!i) <- v;
        incr i
      end)
    center_of;
  { radius; centers; center_of; dist_to_center }

let compute j ~radius = compute_csr (Csr.of_wgraph j) ~radius

(* The oracle's greedy: its radius-doubling loop bails out of a
   too-fine cover early instead of paying for all n singleton balls,
   and its repair mints centers where the kept clusters left a live
   vertex uncovered. Both read nothing but the centers. Isolated
   vertices stay out of the landmark set (a dead slot in a
   capacity-indexed snapshot would otherwise cost a k x k matrix row);
   their singleton balls claim nothing else, so from an empty
   [covered] set the other centers are [compute_csr]'s, in the same
   order. *)
let compute_csr_limited j ~radius ~max_clusters ~covered =
  if radius < 0.0 then invalid_arg "Cluster_cover.compute: radius < 0";
  if max_clusters < 1 then
    invalid_arg "Cluster_cover.compute_csr_limited: max_clusters < 1";
  let n = Csr.n_vertices j in
  if Array.length covered <> n then
    invalid_arg "Cluster_cover.compute_csr_limited: covered length <> n";
  let covered = Array.copy covered in
  let out_v, out_d = Dijkstra.domain_ball_buffers n in
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
     tie-break, so the cover is identical to the sequential one. The
     merge breaks ties by id, so sorting the centers changes no claim;
     it keeps them ascending, as every cover's are. *)
  let centers_arr = Array.of_list (List.sort_uniq Int.compare centers) in
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
  { radius; centers = centers_arr; center_of; dist_to_center }

let of_centers j ~radius ~centers =
  of_centers_csr (Csr.of_wgraph j) ~radius ~centers

let n_clusters ~c = Array.length c.centers

let is_valid j c =
  let j = Csr.of_wgraph j in
  let eps = 1e-9 in
  (* Each center's radius ball, vertex -> sp distance. *)
  let balls = Hashtbl.create 16 in
  Array.iter
    (fun center ->
      let dist = Hashtbl.create 64 in
      List.iter
        (fun (x, d) -> Hashtbl.replace dist x d)
        (Dijkstra.within_csr j center ~bound:c.radius);
      Hashtbl.replace balls center dist)
    c.centers;
  (* Coverage + radius + recorded distances are genuine sp values:
     every vertex lies in its own center's ball, at the recorded
     distance. *)
  let in_own_ball v center =
    match Hashtbl.find_opt balls center with
    | None -> false
    | Some dist -> (
        match Hashtbl.find_opt dist v with
        | Some d -> abs_float (d -. c.dist_to_center.(v)) <= eps
        | None -> false)
  in
  (* Center separation: no center inside another center's ball. *)
  let separated u =
    Hashtbl.fold
      (fun x _ ok -> ok && (x = u || not (Hashtbl.mem balls x)))
      (Hashtbl.find balls u) true
  in
  Array.length c.center_of = Csr.n_vertices j
  && Seq.for_all
       (fun (v, center) -> in_own_ball v center)
       (Array.to_seqi c.center_of)
  && Array.for_all separated c.centers
