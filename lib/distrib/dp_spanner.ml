(* Localized quasi-UDG (1+ε)-spanner after Damian–Pemmaraju (arXiv
   0806.4221). Structure: one h-hop gather run as a real protocol on
   the Runtime simulator, then purely local greedy edge selection
   restricted to the gathered views. See the .mli for the argument
   that the output is unconditionally a t-spanner. *)

module Wgraph = Graph.Wgraph

type result = {
  spanner : Wgraph.t;
  rounds : int;
  messages : int;
  max_message_words : int;
  gather_hops : int;
  max_view : int;
  n_dropped : int;
}

let gather_hops ~params =
  let t = params.Topo.Params.t and alpha = params.Topo.Params.alpha in
  max 2 (int_of_float (ceil (2.0 *. t /. alpha)))

(* Is there a path from [src] to [dst] in [kept], through vertices with
   [in_view] set only, of length at most [bound]? The bounded search
   on the shared core, restricted to the view by a neighbour filter:
   its answer is at most [bound] exactly when the view-restricted
   distance is. *)
let has_witness ws ~kept ~in_view ~src ~dst ~bound =
  Graph.Dijkstra.distance_upto_ws ~keep:(fun y -> in_view.(y)) ws kept src dst
    ~bound
  <= bound

let build ~params model =
  Obs.Trace.span ~cat:"build"
    ~args:(fun () ->
      [
        ("n", float_of_int (Ubg.Model.n model));
        ("t", params.Topo.Params.t);
      ])
    "dp_spanner"
  @@ fun () ->
  let g = model.Ubg.Model.graph in
  let n = Wgraph.n_vertices g in
  let h = gather_hops ~params in
  let views, fstats = Flood.gather ~graph:g ~hops:h ~datum:(fun i -> i) () in
  let max_view =
    Array.fold_left (fun acc l -> max acc (List.length l)) 0 views
  in
  let edges = Array.of_list (Wgraph.edges g) in
  Array.sort Wgraph.compare_edge edges;
  let kept = Wgraph.create n in
  let in_view = Array.make n false in
  let ws = Graph.Dijkstra.create_workspace () in
  let n_dropped = ref 0 in
  let t = params.Topo.Params.t in
  Array.iter
    (fun ({ u; v; w } : Wgraph.edge) ->
      let owner = min u v in
      List.iter (fun (x, _) -> in_view.(x) <- true) views.(owner);
      let witnessed =
        has_witness ws ~kept ~in_view ~src:u ~dst:v ~bound:(t *. w)
      in
      List.iter (fun (x, _) -> in_view.(x) <- false) views.(owner);
      if witnessed then incr n_dropped
      else ignore (Wgraph.add_edge_min kept u v w))
    edges;
  Obs.Metrics.add (Obs.Metrics.counter "dp.dropped") !n_dropped;
  {
    spanner = kept;
    rounds = fstats.Runtime.rounds;
    messages = fstats.Runtime.messages;
    max_message_words = fstats.Runtime.max_words_per_message;
    gather_hops = h;
    max_view;
    n_dropped = !n_dropped;
  }

let build_eps ~eps model =
  let params =
    Topo.Params.of_epsilon ~eps ~alpha:model.Ubg.Model.alpha
      ~dim:(Ubg.Model.dim model)
  in
  build ~params model
