module Wgraph = Graph.Wgraph
module Model = Ubg.Model
module Params = Topo.Params
module Bins = Topo.Bins

type phase_trace = {
  phase : int;
  gather_rounds : int;
  cover_mis_rounds : int;
  redundant_mis_rounds : int;
  mis_messages : int;
  max_message_words : int;
  n_added : int;
  n_removed : int;
}

type result = {
  spanner : Wgraph.t;
  rounds : int;
  traces : phase_trace list;
  params : Params.t;
}

let log_star x =
  let rec go x acc = if x <= 2.0 then acc + 1 else go (log x /. log 2.0) (acc + 1) in
  if x <= 1.0 then 0 else go x 0

let hop_cost reach alpha = max 1 (int_of_float (ceil (reach /. alpha)))

(* The derived coverage graph J of Section 3.2.1: vertices of G,
   an edge when sp_{G'}(u, v) <= radius. Lemma 15 shows it is a UBG of
   constant doubling dimension, which is why an MIS of it elects a
   legal set of cluster centers. [spanner] is the phase's frozen
   snapshot: n bounded Dijkstras all walk the same flat arrays. *)
let coverage_graph spanner ~radius =
  let n = Graph.Csr.n_vertices spanner in
  let j = Wgraph.create n in
  for u = 0 to n - 1 do
    List.iter
      (fun (v, d) -> if v > u && d > 0.0 then Wgraph.add_edge j u v d)
      (Graph.Dijkstra.within_csr spanner u ~bound:radius)
  done;
  j

(* Phase 0 (Section 3.1): one hop of gathering suffices because each
   short-edge component is a clique (Lemma 1); every node then runs
   SEQ-GREEDY on its component locally and announces its incident
   spanner edges — a second round. *)
let short_edge_phase ~model ~params ~bin_edges ~spanner =
  let n = Model.n model in
  let g0 = Wgraph.create n in
  Array.iter (fun (e : Wgraph.edge) -> Wgraph.add_edge g0 e.u e.v e.w) bin_edges;
  let before = Wgraph.n_edges spanner in
  List.iter
    (fun members ->
      match members with
      | [] | [ _ ] -> ()
      | _ ->
          Topo.Seq_greedy.clique_spanner ~points:model.Model.points ~members
            ~metric:Geometry.Metric.Euclidean ~t:params.Params.t ~into:spanner)
    (Graph.Components.groups g0);
  {
    phase = 0;
    gather_rounds = 2;
    cover_mis_rounds = 0;
    redundant_mis_rounds = 0;
    mis_messages = 0;
    max_message_words = 1;
    n_added = Wgraph.n_edges spanner - before;
    n_removed = 0;
  }

let long_edge_phase ~seed ~model ~params ~phase ~w_prev ~w_cur ~bin_edges
    ~spanner =
  let alpha = params.Params.alpha in
  let radius = params.Params.delta *. w_prev in
  (* The phase's one CSR snapshot of G'_{i-1}; every simulated local
     computation below reads it. *)
  let frozen = Graph.Csr.of_wgraph spanner in
  (* (i) cluster cover: local views within 2 radius / alpha hops build
     J; a simulated MIS elects centers. *)
  let jcc = coverage_graph frozen ~radius in
  let mis, mis_stats = Mis.luby ~seed:(seed + (7 * phase)) jcc in
  let centers = Mis.members mis in
  let cover = Topo.Cluster_cover.of_centers_csr frozen ~radius ~centers in
  let g_cover = hop_cost (2.0 *. radius) alpha in
  (* (ii)-(iv) constant-hop gathers + local computation, exactly the
     sequential steps on the MIS-elected cover. *)
  let g_select = 1 + hop_cost (2.0 *. radius) alpha in
  let g_cluster_graph =
    hop_cost (2.0 *. (((2.0 *. params.Params.delta) +. 1.0) *. w_prev)) alpha
  in
  let g_query = hop_cost (2.0 *. params.Params.t *. w_cur) alpha in
  let gather_rounds = g_cover + g_select + g_cluster_graph + g_query in
  if Array.length bin_edges = 0 then
    {
      phase;
      gather_rounds;
      cover_mis_rounds = mis_stats.Runtime.rounds;
      redundant_mis_rounds = 0;
      mis_messages = mis_stats.Runtime.messages;
      max_message_words = mis_stats.Runtime.max_words_per_message;
      n_added = 0;
      n_removed = 0;
    }
  else begin
    let selection =
      Topo.Query_select.select ~points:model.Ubg.Model.points ~spanner:frozen
        ~cover ~params bin_edges
    in
    let h = Topo.Cluster_graph.build_csr ~spanner:frozen ~cover ~w_prev in
    let max_hops = Params.query_hop_limit params in
    let added =
      Array.of_list
        (Array.fold_right
           (fun (e : Wgraph.edge) acc ->
             let budget = params.Params.t *. e.w in
             if
               Topo.Cluster_graph.sp_upto h ~max_hops e.u e.v ~bound:budget
               > budget
             then e :: acc
             else acc)
           selection.Topo.Query_select.query_edges [])
    in
    (* (v) conflict graph over this phase's additions; simulated MIS
       decides survivors. *)
    let jred = Topo.Redundant.conflict_graph ~max_hops ~h ~params added in
    let red_mis, red_stats = Mis.luby ~seed:(seed + (7 * phase) + 3) jred in
    let g_redundant =
      hop_cost (2.0 *. params.Params.t1 *. w_cur) alpha
    in
    let n_added = ref 0 and n_removed = ref 0 in
    Array.iteri
      (fun i (e : Wgraph.edge) ->
        if red_mis.(i) then begin
          if Wgraph.add_edge_min spanner e.u e.v e.w then incr n_added
        end
        else incr n_removed)
      added;
    {
      phase;
      gather_rounds = gather_rounds + g_redundant;
      cover_mis_rounds = mis_stats.Runtime.rounds;
      redundant_mis_rounds = red_stats.Runtime.rounds;
      mis_messages = mis_stats.Runtime.messages + red_stats.Runtime.messages;
      max_message_words =
        max mis_stats.Runtime.max_words_per_message
          red_stats.Runtime.max_words_per_message;
      n_added = !n_added;
      n_removed = !n_removed;
    }
  end

let build ?(seed = 1) ~params model =
  if abs_float (params.Params.alpha -. model.Model.alpha) > 1e-12 then
    invalid_arg "Dist_greedy.build: params/model alpha mismatch";
  if params.Params.dim <> Model.dim model then
    invalid_arg "Dist_greedy.build: params/model dimension mismatch";
  let n = Model.n model in
  let bins = Bins.make ~params ~n in
  let binned = Bins.partition bins (Wgraph.edges model.Model.graph) in
  let spanner = Wgraph.create n in
  let traces = ref [] in
  traces := short_edge_phase ~model ~params ~bin_edges:binned.(0) ~spanner :: !traces;
  (* Every phase runs, even on an empty bin: no node can observe global
     bin emptiness without communicating, and the cluster cover opens
     each phase unconditionally. *)
  for i = 1 to bins.Bins.m do
    traces :=
      long_edge_phase ~seed ~model ~params ~phase:i
        ~w_prev:(Bins.w bins (i - 1))
        ~w_cur:(Bins.w bins i) ~bin_edges:binned.(i) ~spanner
      :: !traces
  done;
  let traces = List.rev !traces in
  let rounds =
    List.fold_left
      (fun acc tr ->
        acc + tr.gather_rounds + tr.cover_mis_rounds + tr.redundant_mis_rounds)
      0 traces
  in
  { spanner; rounds; traces; params }

let build_eps ?seed ~eps model =
  let params =
    Params.of_epsilon ~eps ~alpha:model.Model.alpha ~dim:(Model.dim model)
  in
  build ?seed ~params model
