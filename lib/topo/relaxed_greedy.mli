(** The sequential relaxed greedy spanner — the paper's core algorithm
    (Section 2).

    The edge set of the input α-UBG is split into the geometric bins of
    {!Bins}; phase 0 runs [SEQ-GREEDY] inside the short-edge cliques
    (Section 2.1, [PROCESS-SHORT-EDGES]); each later phase [i] runs the
    five steps of [PROCESS-LONG-EDGES] (Section 2.2): cluster cover,
    query-edge selection, cluster graph, query answering, redundancy
    removal. For valid {!Params} the output is a [t]-spanner of
    constant degree and weight [O(w(MST))] (Theorems 10, 11, 13).

    Edge weights may be transformed by a monotone {!Geometry.Metric}
    (the Section 1.6.2 energy extension): phases remain keyed by
    Euclidean length while path-length comparisons happen in weight
    space. *)

type phase_stats = {
  phase : int;  (** bin index *)
  w_prev : float;  (** [W_{i-1}] (0 for phase 0) *)
  n_bin_edges : int;
  n_covered : int;
  n_candidates : int;
  n_query : int;  (** query edges after per-cluster-pair selection *)
  n_added : int;  (** edges that joined the spanner this phase *)
  n_removed : int;  (** edges removed as redundant *)
  n_clusters : int;  (** 0 for phase 0 *)
  max_queries_per_cluster : int;  (** Lemma 4 quantity *)
  max_inter_degree : int;  (** Lemma 6 quantity *)
}

type result = {
  spanner : Graph.Wgraph.t;  (** G', weighted like the chosen metric *)
  params : Params.t;
  bins : Bins.t;
  stats : phase_stats list;  (** one per nonempty phase, phase order *)
}

(** The pipeline stages in order: phase 0's [short_edges], then the
    per-phase [freeze] of the partial spanner and the five
    [PROCESS-LONG-EDGES] steps [cover], [select], [cluster_graph],
    [queries] and [redundant]. [freeze] covers keeping [G'_{i-1}]
    frozen and extracting a phase's sub-instance: the build's one
    snapshot of [G'_0] (one run, after phase 0); per bin, under
    Euclidean weights, the grid region (one run: its ball marker, on a
    {!Geometry.Grid} the build keeps while the bin's reach fits its
    cell and rebuilds, at twice the reach, once per octave of reach),
    then in {!run_region} the id map, the region's positions, the
    region-induced CSR of [G'_{i-1}] and the bin in local ids (one
    more), and the patch of the snapshot with the bin's kept edges
    (one more). Every run of a stage adds one call to the
    {!Obs.Metrics} timer [stage.<name>] and, with tracing enabled,
    records one span of category ["stage"] named [<name>]. *)
val stages : string list

(** [build ?metric ~params model] runs the algorithm on [model]. The
    params' [alpha]/[dim] must match the model. Default metric:
    Euclidean.

    The metric picks the region each phase runs on through
    {!run_region}. Under Euclidean weights it is the sequential mirror
    of Section 3's local computation: every point within Euclidean
    distance [(t + 3)·W_i] of a bin-edge endpoint, which holds
    everything the phase can consult, found with one
    {!Geometry.Grid.mark_within} per bin; bins ascend, so one grid
    serves every bin whose reach fits its cell, and an n = 10⁴ build
    builds 8 grids for its 159 bins. Energy weights do not bound
    Euclidean displacement, so there a phase runs on every vertex (the
    literal Section 2 formulation). Either way every phase reads
    [G'_{i-1}] from one snapshot the build freezes after phase 0 and
    patches with each bin's kept edges ({!Graph.Csr.add_edges}).

    [observer], when given, is invoked after every executed phase with
    the phase index and a read-only view of the partial spanner [G'_i];
    the test suite uses it to check the Theorem 10 induction invariant
    phase by phase. The spanner must not be mutated from the callback. *)
val build :
  ?metric:Geometry.Metric.t ->
  ?observer:(phase:int -> spanner:Graph.Wgraph.t -> unit) ->
  params:Params.t ->
  Ubg.Model.t ->
  result

(** [build_eps ?metric ~eps model] derives params via
    {!Params.of_epsilon} from the model's own alpha and dimension. *)
val build_eps :
  ?metric:Geometry.Metric.t ->
  eps:float ->
  Ubg.Model.t ->
  result

(** [run_region ?metric ~points ~params ~phase ~w_prev_len ~w_len
    ~region ~spanner bin_edges] is the region runner: one
    [PROCESS-LONG-EDGES] phase (the five Section 2.2 steps) for the bin
    [(w_prev_len, w_len]] on the sub-instance that [region] (strictly
    increasing global ids, holding every bin-edge endpoint) induces.
    [build] passes its grid region under Euclidean weights and every
    vertex under Energy weights. A phase reads only positions
    ([points]) and [G'_{i-1}] ([spanner], a frozen snapshot, only
    read), so no α-UBG is built for the region. The region-induced
    subgraph is copied out of [spanner] with {!Graph.Csr.restrict}, and
    a region of every vertex reads [spanner] as is. Local ids follow
    global order, so the all-vertices region is exactly the
    whole-graph phase.
    [bin_edges] carry Euclidean lengths, mapped into the spanner's
    weight space by [metric] (default Euclidean). Returns the kept
    additions in global ids plus stats, {e without} inserting them
    ([n_added] is 0): the caller merges with [Wgraph.add_edge_min].
    Raises [Invalid_argument] if [region] is not increasing, a bin
    edge leaves it, or [spanner] and [points] disagree on the number of
    vertices. *)
val run_region :
  ?metric:Geometry.Metric.t ->
  points:Geometry.Point.t array ->
  params:Params.t ->
  phase:int ->
  w_prev_len:float ->
  w_len:float ->
  region:int array ->
  spanner:Graph.Csr.t ->
  Graph.Wgraph.edge array ->
  Graph.Wgraph.edge array * phase_stats

(** [total_added stats] and [total_removed stats] fold the per-phase
    counters. *)
val total_added : phase_stats list -> int

val total_removed : phase_stats list -> int

(** One fold over a build's phase stats: the sums and maxima every
    consumer of {!result} wants (the bench sweep, [topoctl], the
    comparison harness). [sum_*] add the per-phase counters; [peak_*]
    are the Lemma 4 / Lemma 6 quantities maximized over phases. *)
type totals = {
  sum_added : int;
  sum_removed : int;
  peak_queries_per_cluster : int;  (** max over phases, Lemma 4 *)
  peak_inter_degree : int;  (** max over phases, Lemma 6 *)
}

val totals : phase_stats list -> totals
