module Wgraph = Graph.Wgraph

type result = {
  kept : Wgraph.edge array;
  removed : Wgraph.edge array;
  n_conflict_nodes : int;
  n_conflict_edges : int;
}

let sp h ~max_hops x y ~bound = Cluster_graph.sp_upto h ~max_hops x y ~bound

(* Conditions (i) and (ii) for one fixed endpoint pairing
   (u <-> u', v <-> v'). *)
let redundant_oriented ~h ~max_hops ~t1 (e1 : Wgraph.edge) (e2 : Wgraph.edge) =
  let b1 = (t1 *. e1.w) -. e2.w and b2 = (t1 *. e2.w) -. e1.w in
  b1 >= 0.0 && b2 >= 0.0
  &&
  let duu = sp h ~max_hops e1.u e2.u ~bound:b1 in
  duu < infinity
  &&
  let dvv = sp h ~max_hops e1.v e2.v ~bound:b1 in
  duu +. e2.w +. dvv <= t1 *. e1.w && duu +. e1.w +. dvv <= t1 *. e2.w

let swap (e : Wgraph.edge) = { e with Wgraph.u = e.v; v = e.u }

let mutually_redundant ?max_hops ~h ~params (e1 : Wgraph.edge)
    (e2 : Wgraph.edge) =
  let t1 = params.Params.t1 in
  let max_hops =
    match max_hops with Some k -> k | None -> Params.query_hop_limit params
  in
  redundant_oriented ~h ~max_hops ~t1 e1 e2
  || redundant_oriented ~h ~max_hops ~t1 e1 (swap e2)

let d_j ~h ~max_hops ~bound (e1 : Wgraph.edge) (e2 : Wgraph.edge) =
  let d x y = sp h ~max_hops x y ~bound in
  min (d e1.u e2.u +. d e1.v e2.v) (d e1.u e2.v +. d e1.v e2.u)

(* Candidates by ball. Either pairing of a conflict between [e1] and a
   later [e2] needs the hop-bounded [sp_H] from [e1.u] to an endpoint
   of [e2] within [t1 w1 - w2 <= t1 w1 - w_min], [w_min] the smallest
   added weight. A plain search's label never exceeds the hop-bounded
   one (float addition is monotone, so every label is the minimum over
   paths of the path's rounded sum), so one bounded search on [H] from
   [e1.u] holds every endpoint that can conflict. Only later edges
   incident to the ball are tested, in ascending index order: [J] gets
   the pair scan's edges in the pair scan's insertion order. *)
let conflict_graph ?max_hops ~h ~params edges =
  let k = Array.length edges in
  let j_graph = Graph.Wgraph.create k in
  let hcsr = h.Cluster_graph.hcsr in
  let n = Graph.Csr.n_vertices hcsr in
  (* Added edges incident to each vertex of [H], ascending by index. *)
  let inc_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (e : Wgraph.edge) ->
      inc_off.(e.u + 1) <- inc_off.(e.u + 1) + 1;
      inc_off.(e.v + 1) <- inc_off.(e.v + 1) + 1)
    edges;
  for x = 0 to n - 1 do
    inc_off.(x + 1) <- inc_off.(x + 1) + inc_off.(x)
  done;
  let inc = Array.make (2 * k) 0 and cursor = Array.sub inc_off 0 n in
  Array.iteri
    (fun i (e : Wgraph.edge) ->
      inc.(cursor.(e.u)) <- i;
      cursor.(e.u) <- cursor.(e.u) + 1;
      inc.(cursor.(e.v)) <- i;
      cursor.(e.v) <- cursor.(e.v) + 1)
    edges;
  let w_min =
    Array.fold_left (fun m (e : Wgraph.edge) -> Float.min m e.w) infinity edges
  in
  let t1 = params.Params.t1 in
  let ws = Graph.Dijkstra.domain_workspace () in
  let ball_v = Array.make n 0 and ball_d = Array.make n 0.0 in
  let seen = Array.make k (-1) and cand = Array.make k 0 in
  for i = 0 to k - 1 do
    let e1 = edges.(i) in
    let bound = (t1 *. e1.w) -. w_min in
    if bound >= 0.0 then begin
      let nb =
        Graph.Dijkstra.within_csr_into ws hcsr e1.u ~bound ~out_v:ball_v
          ~out_d:ball_d
      in
      let nc = ref 0 in
      for b = 0 to nb - 1 do
        let x = ball_v.(b) in
        for c = inc_off.(x) to inc_off.(x + 1) - 1 do
          let j = inc.(c) in
          if j > i && seen.(j) <> i then begin
            seen.(j) <- i;
            cand.(!nc) <- j;
            incr nc
          end
        done
      done;
      let cs = Array.sub cand 0 !nc in
      Array.sort Int.compare cs;
      Array.iter
        (fun j ->
          if mutually_redundant ?max_hops ~h ~params e1 edges.(j) then
            Graph.Wgraph.add_edge j_graph i j 1.0)
        cs
    end
  done;
  j_graph

let filter ?max_hops ~h ~params edges =
  let k = Array.length edges in
  let j_graph = conflict_graph ?max_hops ~h ~params edges in
  let n_conflict_edges = Graph.Wgraph.n_edges j_graph in
  let adj = Array.init k (fun i -> List.map fst (Graph.Wgraph.neighbors j_graph i)) in
  let n_conflict_edges = ref n_conflict_edges in
  (* Greedy MIS over conflict nodes in index order. *)
  let in_mis = Array.make k true in
  let conflicted = Array.make k false in
  for i = 0 to k - 1 do
    if adj.(i) <> [] then conflicted.(i) <- true
  done;
  for i = 0 to k - 1 do
    if conflicted.(i) && in_mis.(i) then
      List.iter (fun j -> if j > i then in_mis.(j) <- false) adj.(i)
  done;
  let kept = ref [] and removed = ref [] in
  let n_conflict_nodes = ref 0 in
  for i = k - 1 downto 0 do
    if conflicted.(i) then incr n_conflict_nodes;
    if in_mis.(i) then kept := edges.(i) :: !kept
    else removed := edges.(i) :: !removed
  done;
  {
    kept = Array.of_list !kept;
    removed = Array.of_list !removed;
    n_conflict_nodes = !n_conflict_nodes;
    n_conflict_edges = !n_conflict_edges;
  }
