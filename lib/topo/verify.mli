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

(** [edge_stretch_csr ~base ~spanner] is {!edge_stretch} operating
    directly on frozen {!Graph.Csr} snapshots — the per-epoch
    certification path of the dynamic engine, which already holds both
    graphs in CSR form.

    Cost: one {!Graph.Dijkstra.distances_to_csr} search in [spanner]
    from every vertex [u] with a base neighbor [v > u], with those
    neighbors as targets. Each search settles only the ball of radius
    [max_v sp(u, v)], which is at most [t] times [u]'s longest base
    edge whenever the spanner certifies at [t]: a local ball of the
    α-UBG, not the whole graph. A spanner that fails (a target far
    away, or unreachable) costs more searching, never a wrong value.

    Exactness: a popped label is final, so the search stops with every
    target's distance exact, for any nonnegative weights. The result
    is bit for bit the maximum of per-source unbounded searches, with
    no stretch bound [t] needed. Sources fan out over
    {!Parallel.Pool}; the result is bit-identical at every pool
    size. *)
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
