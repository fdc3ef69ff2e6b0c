(* Localized quasi-UDG (1+ε)-spanner after Damian–Pemmaraju (arXiv
   0806.4221). Structure: one h-hop gather run as a real protocol on
   the Runtime simulator, then purely local greedy edge selection
   restricted to the gathered views. See the .mli for the argument
   that the output is unconditionally a t-spanner. *)

module Wgraph = Graph.Wgraph
module Heap = Graph.Heap

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

(* Bounded Dijkstra from [src] towards [dst] on [kept], relaxing only
   vertices with [in_view] set, never past distance [bound]. [dist] is
   an all-infinity scratch array; every write is undone before
   returning so the caller can reuse it. *)
let has_witness ~kept ~in_view ~heap ~dist ~src ~dst ~bound =
  Heap.clear heap;
  dist.(src) <- 0.0;
  let touched = ref [ src ] in
  Heap.insert heap src 0.0;
  let found = ref false in
  (try
     while not (Heap.is_empty heap) do
       let x, d = Heap.pop_min heap in
       if x = dst then begin
         found := true;
         raise Exit
       end;
       if d > bound then raise Exit;
       Wgraph.iter_neighbors kept x (fun y w ->
           if in_view.(y) then begin
             let nd = d +. w in
             if nd <= bound && nd < dist.(y) then begin
               if dist.(y) = infinity then touched := y :: !touched;
               dist.(y) <- nd;
               Heap.insert_or_decrease heap y nd
             end
           end)
     done
   with Exit -> ());
  List.iter (fun y -> dist.(y) <- infinity) !touched;
  !found

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
  let dist = Array.make n infinity in
  let heap = Heap.create n in
  let n_dropped = ref 0 in
  let t = params.Topo.Params.t in
  Array.iter
    (fun ({ u; v; w } : Wgraph.edge) ->
      let owner = min u v in
      List.iter (fun (x, _) -> in_view.(x) <- true) views.(owner);
      let witnessed =
        has_witness ~kept ~in_view ~heap ~dist ~src:u ~dst:v
          ~bound:(t *. w)
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
