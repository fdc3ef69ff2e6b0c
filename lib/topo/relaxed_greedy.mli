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
    [queries] and [redundant]. Every run of a stage adds one call to the
    {!Obs.Metrics} timer [stage.<name>] and, with tracing enabled,
    records one span of category ["stage"] named [<name>]. *)
val stages : string list

(** [build ?metric ?mode ~params model] runs the algorithm on [model].
    The params' [alpha]/[dim] must match the model. Default metric:
    Euclidean.

    [mode] selects the phase engine: [`Global] runs every phase over
    the whole graph (the literal Section 2 formulation); [`Local]
    restricts each phase to the Euclidean neighborhood that its bin
    can possibly consult — the sequential mirror of Section 3's local
    computation, asymptotically faster on large instances and
    Euclidean-only; [`Auto] (default) picks [`Local] when the metric
    allows it. Both engines produce outputs with the same three
    guarantees (they may differ in which equivalent edges they keep).

    [observer], when given, is invoked after every executed phase with
    the phase index and a read-only view of the partial spanner [G'_i];
    the test suite uses it to check the Theorem 10 induction invariant
    phase by phase. The spanner must not be mutated from the callback. *)
val build :
  ?metric:Geometry.Metric.t ->
  ?mode:[ `Auto | `Global | `Local ] ->
  ?observer:(phase:int -> spanner:Graph.Wgraph.t -> unit) ->
  params:Params.t ->
  Ubg.Model.t ->
  result

(** [build_eps ?metric ?mode ~eps model] derives params via
    {!Params.of_epsilon} from the model's own alpha and dimension. *)
val build_eps :
  ?metric:Geometry.Metric.t ->
  ?mode:[ `Auto | `Global | `Local ] ->
  eps:float ->
  Ubg.Model.t ->
  result

(** [run_phase ~model ~params ~phase ~w_prev_len ~w_len ~bin_edges
    ~spanner] runs one Euclidean [PROCESS-LONG-EDGES] phase (the five
    Section 2.2 steps) for the bin [(w_prev_len, w_len]] against the
    partial spanner, and returns the kept additions plus stats {e
    without} inserting them — the caller decides how to merge
    ([Wgraph.add_edge_min]; [n_added] in the returned stats is 0 until
    then). [spanner] is only read (frozen into one CSR snapshot). The
    incremental engine ([Dynamic.Engine]) uses this to re-run a phase
    restricted to a dirty sub-instance. *)
val run_phase :
  model:Ubg.Model.t ->
  params:Params.t ->
  phase:int ->
  w_prev_len:float ->
  w_len:float ->
  bin_edges:Graph.Wgraph.edge array ->
  spanner:Graph.Wgraph.t ->
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
