type t = { mutable adj : (int, float) Hashtbl.t array; mutable n_edges : int }

type edge = { u : int; v : int; w : float }

let compare_edge a b =
  let c = Float.compare a.w b.w in
  if c <> 0 then c
  else
    let c = Int.compare a.u b.u in
    if c <> 0 then c else Int.compare a.v b.v

let create n =
  if n < 0 then invalid_arg "Wgraph.create: negative size";
  { adj = Array.init n (fun _ -> Hashtbl.create 8); n_edges = 0 }

let n_vertices g = Array.length g.adj
let n_edges g = g.n_edges

let grow g n =
  let n0 = n_vertices g in
  if n > n0 then
    g.adj <-
      Array.init n (fun u -> if u < n0 then g.adj.(u) else Hashtbl.create 8)

let check_vertex g u =
  if u < 0 || u >= n_vertices g then invalid_arg "Wgraph: vertex out of range"

let mem_edge g u v =
  check_vertex g u;
  check_vertex g v;
  Hashtbl.mem g.adj.(u) v

let add_edge g u v w =
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Wgraph.add_edge: self loop";
  if w <= 0.0 then invalid_arg "Wgraph.add_edge: nonpositive weight";
  if not (Hashtbl.mem g.adj.(u) v) then g.n_edges <- g.n_edges + 1;
  Hashtbl.replace g.adj.(u) v w;
  Hashtbl.replace g.adj.(v) u w

let add_edge_min g u v w =
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Wgraph.add_edge_min: self loop";
  if w <= 0.0 then invalid_arg "Wgraph.add_edge_min: nonpositive weight";
  match Hashtbl.find_opt g.adj.(u) v with
  | Some w' when w' <= w -> false
  | Some _ ->
      Hashtbl.replace g.adj.(u) v w;
      Hashtbl.replace g.adj.(v) u w;
      false
  | None ->
      g.n_edges <- g.n_edges + 1;
      Hashtbl.replace g.adj.(u) v w;
      Hashtbl.replace g.adj.(v) u w;
      true

let remove_edge g u v =
  check_vertex g u;
  check_vertex g v;
  if Hashtbl.mem g.adj.(u) v then begin
    Hashtbl.remove g.adj.(u) v;
    Hashtbl.remove g.adj.(v) u;
    g.n_edges <- g.n_edges - 1;
    true
  end
  else false

let weight g u v =
  check_vertex g u;
  check_vertex g v;
  Hashtbl.find_opt g.adj.(u) v

let degree g u =
  check_vertex g u;
  Hashtbl.length g.adj.(u)

let neighbors g u =
  check_vertex g u;
  Hashtbl.fold (fun v w acc -> (v, w) :: acc) g.adj.(u) []

let iter_neighbors g u f =
  check_vertex g u;
  Hashtbl.iter f g.adj.(u)

let fold_neighbors g u f acc =
  check_vertex g u;
  Hashtbl.fold f g.adj.(u) acc

let iter_edges g f =
  Array.iteri
    (fun u adj -> Hashtbl.iter (fun v w -> if u < v then f u v w) adj)
    g.adj

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v w -> acc := { u; v; w } :: !acc);
  !acc

let of_edges ~n es =
  let g = create n in
  List.iter (fun (u, v, w) -> add_edge g u v w) es;
  g

let copy g =
  { adj = Array.map Hashtbl.copy g.adj; n_edges = g.n_edges }

let union g h =
  if n_vertices g <> n_vertices h then invalid_arg "Wgraph.union: size";
  iter_edges h (fun u v w -> ignore (add_edge_min g u v w))

let total_weight g =
  let acc = ref 0.0 in
  iter_edges g (fun _ _ w -> acc := !acc +. w);
  !acc

let max_degree g =
  let m = ref 0 in
  Array.iter (fun adj -> m := max !m (Hashtbl.length adj)) g.adj;
  !m

let avg_degree g =
  let n = n_vertices g in
  if n = 0 then 0.0 else 2.0 *. float_of_int (n_edges g) /. float_of_int n

let is_symmetric_consistent g =
  let ok = ref true in
  let count = ref 0 in
  Array.iteri
    (fun u adj ->
      Hashtbl.iter
        (fun v w ->
          incr count;
          (match Hashtbl.find_opt g.adj.(v) u with
          | Some w' when w' = w -> ()
          | Some _ | None -> ok := false);
          if u = v || w <= 0.0 then ok := false)
        adj)
    g.adj;
  !ok && !count = 2 * g.n_edges

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," (n_vertices g) (n_edges g);
  iter_edges g (fun u v w -> Format.fprintf ppf "  %d -- %d  (%g)@," u v w);
  Format.fprintf ppf "@]"
