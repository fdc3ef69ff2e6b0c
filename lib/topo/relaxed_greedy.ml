module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
module Model = Ubg.Model

type phase_stats = {
  phase : int;
  w_prev : float;
  n_bin_edges : int;
  n_covered : int;
  n_candidates : int;
  n_query : int;
  n_added : int;
  n_removed : int;
  n_clusters : int;
  max_queries_per_cluster : int;
  max_inter_degree : int;
}

type result = {
  spanner : Wgraph.t;
  params : Params.t;
  bins : Bins.t;
  stats : phase_stats list;
}

let log_src = Logs.Src.create "topo.relaxed_greedy" ~doc:"relaxed greedy spanner"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Observability: per-phase counters always accumulate (a few stores per
   phase); the per-bin spans cost nothing when tracing is off. The span
   args are threaded through a ref because the interesting numbers only
   exist once the phase returns its stats. *)
let m_bins = Obs.Metrics.counter "relaxed.bins"
let m_bin_edges = Obs.Metrics.counter "relaxed.bin_edges"
let m_query_edges = Obs.Metrics.counter "relaxed.query_edges"
let m_added = Obs.Metrics.counter "relaxed.added"
let m_removed = Obs.Metrics.counter "relaxed.removed"

(* Stage timing: each pipeline stage is a [stage.<name>] timer, always
   on, plus a "stage" span when tracing is enabled. *)
let stages =
  [
    "short_edges"; "freeze"; "cover"; "select"; "cluster_graph"; "queries";
    "redundant";
  ]

let stage_timers =
  List.map (fun s -> (s, Obs.Metrics.timer ("stage." ^ s))) stages

let stage name f =
  Obs.Metrics.time (List.assoc name stage_timers) (fun () ->
      Obs.Trace.span ~cat:"stage" name f)

let bin_span i info f =
  if Obs.Trace.enabled () then
    Obs.Trace.span ~cat:"bin"
      ~args:(fun () -> !info)
      ("bin-" ^ string_of_int i)
      f
  else f ()

let span_info (s : phase_stats) =
  [
    ("bin_edges", float_of_int s.n_bin_edges);
    ("query_edges", float_of_int s.n_query);
    ("added", float_of_int s.n_added);
    ("removed", float_of_int s.n_removed);
  ]

(* Phase 0, PROCESS-SHORT-EDGES: connected components of the short-edge
   graph induce cliques in G (Lemma 1); run SEQ-GREEDY inside each.
   Components are vertex-disjoint and phase-0 greedy paths never leave
   their component, so the per-component spanners run on the pool and
   merge in component order — the same edge set the sequential
   insertion produced. *)
let process_short_edges ~model ~metric ~params ~bin_edges ~spanner =
  let n = Model.n model in
  let g0 = Wgraph.create n in
  Array.iter
    (fun (e : Wgraph.edge) -> Wgraph.add_edge g0 e.u e.v e.w)
    bin_edges;
  let before = Wgraph.n_edges spanner in
  stage "short_edges" (fun () ->
      let components =
        Array.of_list
          (List.filter
             (fun members ->
               match members with [] | [ _ ] -> false | _ -> true)
             (Graph.Components.groups g0))
      in
      let kept =
        Parallel.Pool.map
          (fun members ->
            Seq_greedy.clique_spanner_edges ~points:model.Model.points
              ~members ~metric ~t:params.Params.t)
          components
      in
      Array.iter
        (List.iter (fun (e : Wgraph.edge) -> Wgraph.add_edge spanner e.u e.v e.w))
        kept);
  {
    phase = 0;
    w_prev = 0.0;
    n_bin_edges = Array.length bin_edges;
    n_covered = 0;
    n_candidates = Array.length bin_edges;
    n_query = Array.length bin_edges;
    n_added = Wgraph.n_edges spanner - before;
    n_removed = 0;
    n_clusters = 0;
    max_queries_per_cluster = 0;
    max_inter_degree = 0;
  }

(* Phase i >= 1, PROCESS-LONG-EDGES, five steps of Section 2.2, on the
   phase's own vertex ids: [points] are their positions and [frozen] is
   the one CSR snapshot of G'_{i-1} that steps (i)-(iv) all read. Bin
   edges carry Euclidean lengths; [phi] maps lengths into the spanner's
   weight space. Returns the surviving additions instead of inserting
   them. *)
let phase_core ~points ~params ~phi ~phase ~w_prev_len ~w_len ~bin_edges
    ~frozen =
  let w_prev = phi w_prev_len in
  let radius = params.Params.delta *. w_prev in
  (* Step (i): cluster cover of radius delta * W_{i-1}. *)
  let cover =
    stage "cover" (fun () ->
        Cluster_cover.compute_csr frozen ~radius)
  in
  (* Step (ii): covered-edge filter + one query edge per cluster pair. *)
  let selection =
    stage "select" (fun () ->
        Query_select.select ~weight_of_len:phi ~points ~spanner:frozen ~cover
          ~params bin_edges)
  in
  (* Step (iii): the cluster graph H_{i-1}. *)
  let h =
    stage "cluster_graph" (fun () ->
        Cluster_graph.build_csr ~spanner:frozen ~cover ~w_prev)
  in
  (* Step (iv): answer every query on the frozen H. The lazy update —
     the spanner is only touched after all queries are answered — is
     exactly what makes the queries order-independent, so they fan out
     over the pool; the slot-ordered distances are then folded in array
     order, keeping [added] identical to the sequential scan. *)
  let ratio = phi w_len /. w_prev in
  let max_hops =
    2 + int_of_float (ceil (params.Params.t *. ratio /. params.Params.delta))
  in
  let added =
    stage "queries" (fun () ->
        let queries = selection.Query_select.query_edges in
        let dists = Array.make (Array.length queries) infinity in
        Parallel.Pool.parallel_for (Array.length queries) (fun i ->
            let e = queries.(i) in
            let budget = params.Params.t *. phi e.w in
            dists.(i) <- Cluster_graph.sp_upto h ~max_hops e.u e.v ~bound:budget);
        let added = ref [] in
        Array.iteri
          (fun i (e : Wgraph.edge) ->
            let len_w = phi e.w in
            if dists.(i) > params.Params.t *. len_w then
              added := { e with Wgraph.w = len_w } :: !added)
          selection.Query_select.query_edges;
        Array.of_list (List.rev !added))
  in
  (* Step (v): strip mutually redundant additions via an MIS of the
     conflict graph. *)
  let redundancy =
    stage "redundant" (fun () ->
        Redundant.filter ~max_hops ~h ~params added)
  in
  let stats =
    {
      phase;
      w_prev = w_prev_len;
      n_bin_edges = selection.Query_select.n_bin_edges;
      n_covered = selection.Query_select.n_covered;
      n_candidates = selection.Query_select.n_candidates;
      n_query = Array.length selection.Query_select.query_edges;
      n_added = 0 (* filled by the caller after insertion *);
      n_removed = Array.length redundancy.Redundant.removed;
      n_clusters = Cluster_cover.n_clusters ~c:cover;
      max_queries_per_cluster = selection.Query_select.max_queries_per_cluster;
      max_inter_degree = Cluster_graph.max_inter_degree h;
    }
  in
  (redundancy.Redundant.kept, stats)

let relabel f (e : Wgraph.edge) = { e with Wgraph.u = f e.u; v = f e.v }

(* The region runner: one phase on the sub-instance induced by
   [region] (strictly increasing global ids) in the snapshot [spanner]
   of G'_{i-1}. Extraction is the local form of freezing G'_{i-1}, so
   it all runs in the [freeze] stage: a flat global -> local id map, the
   region's positions, the spanner's region-induced CSR and the bin in
   local ids. A region of every vertex is the identity, so it reads the
   snapshot as is. The kept additions come back in global ids. *)
let run_region ?(metric = Geometry.Metric.Euclidean) ~points ~params ~phase
    ~w_prev_len ~w_len ~region ~spanner bin_edges =
  let sub_points, frozen, sub_bin =
    stage "freeze" (fun () ->
        let n = Array.length points in
        if Csr.n_vertices spanner <> n then
          invalid_arg "Relaxed_greedy.run_region: spanner and points disagree";
        let local_of = Array.make n (-1) in
        Array.iteri
          (fun i v ->
            if i > 0 && region.(i - 1) >= v then
              invalid_arg "Relaxed_greedy.run_region: region not increasing";
            local_of.(v) <- i)
          region;
        let local v =
          if local_of.(v) < 0 then
            invalid_arg "Relaxed_greedy.run_region: bin edge outside region";
          local_of.(v)
        in
        if Array.length region = n then (points, spanner, bin_edges)
        else
          ( Array.map (Array.get points) region,
            Csr.restrict spanner ~region ~local_of,
            Array.map (relabel local) bin_edges ))
  in
  let kept, stats =
    phase_core ~points:sub_points ~params
      ~phi:(Geometry.Metric.of_distance metric)
      ~phase ~w_prev_len ~w_len ~bin_edges:sub_bin ~frozen
  in
  (Array.map (relabel (Array.get region)) kept, stats)

let insert_kept ~spanner kept stats =
  let n_added = ref 0 in
  Array.iter
    (fun (e : Wgraph.edge) ->
      if Wgraph.add_edge_min spanner e.u e.v e.w then incr n_added)
    kept;
  { stats with n_added = !n_added }

(* Locality-optimized region (DESIGN.md S15, mirroring Section 3's local
   computation): everything a phase can possibly consult — t-spanner
   paths for its queries, the clusters along them, the inter-cluster
   Dijkstra reach — lies within Euclidean distance (t + 3) W_i of some
   bin-edge endpoint. Euclidean weights only (path weight bounds
   Euclidean displacement). [grid] is the last grid built, kept while
   the reach fits its cell; a reach that outgrows it gets a new grid of
   cell 2·reach. Bins ascend, so a build makes one grid per octave of
   reach, and the marked set does not depend on the cell. The marker
   takes each distinct endpoint once, buckets them by cell and tests
   each point against the endpoints of its neighbouring cells until
   the first hit. Returns the region in increasing id order. *)
let local_region ~grid ~points ~params ~w_len bin_edges =
  let reach = (params.Params.t +. 3.0) *. w_len in
  let g =
    match !grid with
    | Some (cell, g) when reach <= cell -> g
    | _ ->
        let cell = 2.0 *. reach in
        let g = Geometry.Grid.build ~cell points in
        grid := Some (cell, g);
        g
  in
  let seen = Bytes.make (Array.length points) '\000' and centres = ref [] in
  Array.iter
    (fun (e : Wgraph.edge) ->
      List.iter
        (fun v ->
          if Bytes.get seen v = '\000' then begin
            Bytes.set seen v '\001';
            centres := points.(v) :: !centres
          end)
        [ e.u; e.v ])
    bin_edges;
  let in_region =
    Geometry.Grid.mark_within g ~radius:reach (Array.of_list !centres)
  in
  let region =
    Array.make (Array.fold_left (fun k b -> if b then k + 1 else k) 0 in_region) 0
  in
  let k = ref 0 in
  Array.iteri
    (fun v b ->
      if b then begin
        region.(!k) <- v;
        incr k
      end)
    in_region;
  region

let build ?(metric = Geometry.Metric.Euclidean)
    ?(observer = fun ~phase:_ ~spanner:_ -> ()) ~params model =
  Geometry.Metric.validate metric;
  if abs_float (params.Params.alpha -. model.Model.alpha) > 1e-12 then
    invalid_arg "Relaxed_greedy.build: params/model alpha mismatch";
  if params.Params.dim <> Model.dim model then
    invalid_arg "Relaxed_greedy.build: params/model dimension mismatch";
  let n = Model.n model in
  let bins = Bins.make ~params ~n in
  (* Canonical (w, u, v) edge order before binning: Wgraph iteration
     order reflects the builder's hashtable insertion history, and the
     per-bin scan tie-breaks (Query_select's inequality-(1) minimizer)
     on scan order. Sorting makes [build] a function of the edge SET —
     what lets a checkpoint-restored engine (whose graphs were re-thawed
     in CSR order) rebuild bit-identically to an uninterrupted one. *)
  let binned =
    Bins.partition bins
      (List.sort Wgraph.compare_edge (Wgraph.edges model.Model.graph))
  in
  let spanner = Wgraph.create n in
  let points = model.Model.points in
  (* The metric picks the region: Euclidean weights bound Euclidean
     displacement, so a phase runs on its grid region, timed as part of
     the freeze it feeds; under Energy weights it runs on every
     vertex. *)
  let region_of =
    match metric with
    | Geometry.Metric.Euclidean ->
        let grid = ref None in
        fun ~w_len bin_edges ->
          stage "freeze" (fun () ->
              local_region ~grid ~points ~params ~w_len bin_edges)
    | Geometry.Metric.Energy _ ->
        let all = Array.init n Fun.id in
        fun ~w_len:_ _ -> all
  in
  let stats = ref [] in
  let push s =
    Log.debug (fun m ->
        m "phase %d: |E_i|=%d covered=%d query=%d added=%d removed=%d" s.phase
          s.n_bin_edges s.n_covered s.n_query s.n_added s.n_removed);
    Obs.Metrics.incr m_bins;
    Obs.Metrics.add m_bin_edges s.n_bin_edges;
    Obs.Metrics.add m_query_edges s.n_query;
    Obs.Metrics.add m_added s.n_added;
    Obs.Metrics.add m_removed s.n_removed;
    stats := s :: !stats
  in
  Obs.Trace.span ~cat:"build"
    ~args:(fun () -> [ ("n", float_of_int n) ])
    "relaxed_greedy"
    (fun () ->
      let info0 = ref [] in
      let s0 =
        bin_span 0 info0 (fun () ->
            let s =
              process_short_edges ~model ~metric ~params ~bin_edges:binned.(0)
                ~spanner
            in
            info0 := span_info s;
            s)
      in
      push s0;
      observer ~phase:0 ~spanner;
      (* G'_0 frozen once and patched with each bin's kept edges: every
         phase reads its region out of this one snapshot. *)
      let frozen = ref (stage "freeze" (fun () -> Csr.of_wgraph spanner)) in
      for i = 1 to bins.Bins.m do
        if Array.length binned.(i) > 0 then begin
          let w_prev_len = Bins.w bins (i - 1) and w_len = Bins.w bins i in
          let info = ref [] in
          let bin_edges = binned.(i) in
          let s =
            bin_span i info (fun () ->
                let kept, s =
                  run_region ~metric ~points ~params ~phase:i ~w_prev_len
                    ~w_len ~region:(region_of ~w_len bin_edges)
                    ~spanner:!frozen bin_edges
                in
                let s = insert_kept ~spanner kept s in
                frozen := stage "freeze" (fun () -> Csr.add_edges !frozen kept);
                info := span_info s;
                s)
          in
          push s;
          observer ~phase:i ~spanner
        end
      done);
  { spanner; params; bins; stats = List.rev !stats }

let build_eps ?metric ~eps model =
  let params =
    Params.of_epsilon ~eps ~alpha:model.Model.alpha ~dim:(Model.dim model)
  in
  build ?metric ~params model

type totals = {
  sum_added : int;
  sum_removed : int;
  peak_queries_per_cluster : int;
  peak_inter_degree : int;
}

let totals stats =
  List.fold_left
    (fun acc s ->
      {
        sum_added = acc.sum_added + s.n_added;
        sum_removed = acc.sum_removed + s.n_removed;
        peak_queries_per_cluster =
          max acc.peak_queries_per_cluster s.max_queries_per_cluster;
        peak_inter_degree = max acc.peak_inter_degree s.max_inter_degree;
      })
    {
      sum_added = 0;
      sum_removed = 0;
      peak_queries_per_cluster = 0;
      peak_inter_degree = 0;
    }
    stats

let total_added stats = (totals stats).sum_added
let total_removed stats = (totals stats).sum_removed
