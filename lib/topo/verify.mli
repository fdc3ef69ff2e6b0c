(** Certification of the three output properties (paper Section 2.3).

    The t-spanner property is checked through the standard reduction:
    a spanning subgraph [G'] of [G] is a t-spanner iff for every {e
    edge} [{u, v}] of [G], [sp_{G'}(u, v) <= t * w(u, v)] (paths
    compose). [edge_stretch] computes the exact maximum of that ratio;
    [exact_stretch] computes the textbook all-pairs definition and is
    meant for small instances and cross-checks. *)

(** [edge_stretch ~base ~spanner] is the maximum over the edges of
    [base] of [sp_spanner(u, v) / w(u, v)]; [infinity] if some edge's
    endpoints are disconnected in [spanner]; [1.0] on the edgeless
    graph. Both graphs must share the vertex set and weight space. It
    is {!edge_stretch_csr} on {!Graph.Csr.of_wgraph} of both graphs. *)
val edge_stretch : base:Graph.Wgraph.t -> spanner:Graph.Wgraph.t -> float

(** [is_t_spanner ~base ~spanner ~t] is
    [edge_stretch ~base ~spanner <= t +. 1e-9]. *)
val is_t_spanner : base:Graph.Wgraph.t -> spanner:Graph.Wgraph.t -> t:float -> bool

(** [source_stretch ~base ~spanner u] is the worst ratio
    [sp_spanner(u, v) / w(u, v)] over [u]'s {e forward} base edges,
    those to a neighbour [v > u], and at least [1.0] ([1.0] when [u]
    has none; [infinity] when one of them has its endpoints
    disconnected in [spanner]). The maximum of it over every vertex is
    {!edge_stretch_csr}, since each base edge is the forward edge of
    exactly one endpoint. The value depends only on [u]'s forward base
    slice and on the spanner distances from [u] to its ends, which is
    what lets the dynamic engine carry it across epochs for sources
    that no change can reach ([Dynamic.Engine]).

    Cost: one {!Graph.Dijkstra.distances_to_csr} search in [spanner]
    from [u], with the forward neighbours as targets. It settles only
    the ball of radius [max_v sp(u, v)], which is at most [t] times
    [u]'s longest forward base edge whenever the spanner certifies at
    [t]: a local ball of the α-UBG, not the whole graph. A spanner that
    fails (a target far away, or unreachable) costs more searching,
    never a wrong value.

    Exactness: a popped label is final, so the search stops with every
    target's distance exact, for any nonnegative weights: bit for bit
    the value an unbounded search gives, with no stretch bound [t]
    needed. Raises [Invalid_argument] when the graphs' vertex counts
    differ or [u] is not a vertex. *)
val source_stretch : base:Graph.Csr.t -> spanner:Graph.Csr.t -> int -> float

(** [source_stretches ~base ~spanner] is {!source_stretch} of every
    vertex, indexed by vertex. Vertices fan out over
    {!Parallel.Pool}, each writing its own slot, so the array is
    bit-identical at every pool size. *)
val source_stretches :
  base:Graph.Csr.t -> spanner:Graph.Csr.t -> float array

(** [edge_stretch_csr ~base ~spanner] is {!edge_stretch} operating
    directly on frozen {!Graph.Csr} snapshots: the maximum of
    {!source_stretches}, folded from [1.0]. Max is commutative, so the
    result is bit-identical at every pool size. This is the full
    certifier: the dynamic engine runs it when it builds, restores or
    rebuilds, and tests and E-churn compare the engine's per-epoch
    stretch with it. *)
val edge_stretch_csr : base:Graph.Csr.t -> spanner:Graph.Csr.t -> float

(** [is_t_spanner_csr ~base ~spanner ~t] is
    [edge_stretch_csr ~base ~spanner <= t +. 1e-9]. *)
val is_t_spanner_csr :
  base:Graph.Csr.t -> spanner:Graph.Csr.t -> t:float -> bool

(** [exact_stretch ~base ~spanner] is the all-pairs stretch
    [max sp_spanner(u,v) / sp_base(u,v)] over connected pairs — the
    literal t-spanner definition. O(n * m log n); use on small
    inputs. *)
val exact_stretch : base:Graph.Wgraph.t -> spanner:Graph.Wgraph.t -> float

(** [check result ~model] certifies a {!Relaxed_greedy.result} against
    its input: subgraph inclusion, spanner stretch within [t], and
    returns the triple (stretch, max degree, weight / MST weight).
    Raises [Failure] with a diagnostic when the output is not a
    subgraph of the input α-UBG. *)
val check : Relaxed_greedy.result -> model:Ubg.Model.t -> float * int * float
