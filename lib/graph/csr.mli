(** Immutable compressed-sparse-row (CSR) snapshots of a {!Wgraph}.

    A snapshot packs the adjacency structure of an undirected weighted
    graph into three flat arrays: [off] (length [n + 1]) delimits per-
    vertex slices, [dst] and [wgt] (length [2m], one entry per directed
    arc) hold the neighbor ids and edge weights. Within each vertex's
    slice the neighbors are sorted by id, so membership and weight
    lookups are binary searches and iteration is a cache-friendly
    linear scan — no hashtable bucket chasing. An arc costs 16 bytes:
    an [int] target plus an unboxed [float] weight.

    This is the one frozen-graph type, and this module is the one that
    knows the arc layout. The mutable {!Wgraph.t} remains the builder
    type; the read-heavy layers (Dijkstra, cluster covers, cluster
    graphs, query selection, the oracle, the distributed runtime)
    freeze a snapshot once and consume it for every subsequent
    traversal. A snapshot comes from {!of_wgraph}, from {!restrict}
    when only a region of another snapshot is wanted (a relaxed-greedy
    phase's sub-instance), from {!add_edges} when a snapshot gains a
    batch of edges (a build's partial spanner after each bin) or some
    vertices lose every edge and others gain new ones (the dynamic
    engine's α-UBG, whose touched slots are re-derived each epoch), or
    from {!of_arrays} when a builder emits the arcs itself (the cluster
    graph does, and so does the checkpoint parser in [Ubg.Io]). Building is O(n + m); a snapshot never observes later
    mutations of the source graph. *)

type t = private {
  off : int array;  (** length [n + 1]; vertex [u]'s arcs live in
                        [off.(u) .. off.(u+1) - 1] *)
  dst : int array;  (** arc targets, sorted within each slice *)
  wgt : float array;  (** arc weights, parallel to [dst] *)
}

(** [of_wgraph g] freezes [g] into a snapshot in O(n + m). *)
val of_wgraph : Wgraph.t -> t

(** [restrict c ~region ~local_of] is the subgraph of [c] induced by
    [region] (distinct vertices), relabelled so that [region.(i)]
    becomes vertex [i]; [local_of] maps each vertex of [c] to its
    region index, or [-1] outside it. The result equals {!of_wgraph} of
    that induced graph, bit for bit, copied slice by slice out of [c]'s
    own arrays. When [region] ascends, local ids ascend with global
    ids, so every copied slice is already sorted and nothing is
    sorted. This is how a relaxed-greedy build reads a phase's region
    out of its one snapshot of the partial spanner. *)
val restrict : t -> region:int array -> local_of:int array -> t

(** [add_edges ?n ?cut c edges] is a new snapshot: [c] grown to [n]
    vertices (default [n_vertices c]), without the edges incident to a
    vertex of [cut] (default none; vertices may repeat and may be new
    ones), with [edges] added. Bit for bit it is {!of_wgraph} of that
    graph after [Wgraph.add_edge_min] of each edge, so an edge already
    present, or repeated in the batch, keeps its smallest weight; the
    cut removes only [c]'s edges, never the batch's. [c] is unchanged.
    One pass over the vertices: the runs of vertices whose slice is
    unchanged are blitted, and each changed slice (a cut vertex, a
    neighbour of one, a vertex with new arcs) is merged with its sorted
    new arcs; the batch itself is sorted, so the cost is
    O(n + m + k log k) for [k] edges, and no intermediate snapshot is
    made. With no edge, no cut and no growth it
    returns [c]. A relaxed-greedy build patches its snapshot of the
    partial spanner with each bin's kept edges this way, and the
    dynamic engine derives each epoch's α-UBG from the last one with
    the touched slots as [cut] and their re-derived edges. Raises
    [Invalid_argument] when [n] is below [n_vertices c], on a cut
    vertex outside [0, n), and on an edge with an endpoint outside
    [0, n), a self loop or a nonpositive weight. *)
val add_edges : ?n:int -> ?cut:int array -> t -> Wgraph.edge array -> t

(** [of_arrays ~off ~dst ~wgt] adopts caller-built arrays as a
    snapshot without copying them; the caller must not mutate them
    afterwards. [off] must have length [n + 1], start at [0], never
    decrease and end at the common length of [dst] and [wgt], and every
    arc target must be a vertex in [0, n). A slice not already sorted
    by neighbor id is sorted in place, so arcs may be emitted in any
    order within a slice and the result has exactly {!of_wgraph}'s
    layout for the same edge set. Raises [Invalid_argument] on a
    malformed shape. *)
val of_arrays : off:int array -> dst:int array -> wgt:float array -> t

(** [to_wgraph c] thaws the snapshot back into a fresh mutable graph
    with the same vertex set, edge set and weights. *)
val to_wgraph : t -> Wgraph.t

(** [n_vertices c] is the number of vertices. *)
val n_vertices : t -> int

(** [n_edges c] is the number of undirected edges. *)
val n_edges : t -> int

(** [degree c u] is the number of neighbors of [u]. *)
val degree : t -> int -> int

(** [max_degree c] is the largest vertex degree, 0 when edgeless. *)
val max_degree : t -> int

(** [mem_edge c u v] tests edge presence by binary search —
    O(log degree). *)
val mem_edge : t -> int -> int -> bool

(** [weight c u v] is [Some w] if the edge exists, else [None]. *)
val weight : t -> int -> int -> float option

(** [iter_neighbors c u f] calls [f v w] for each neighbor of [u] in
    increasing id order. *)
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

(** [fold_neighbors c u f acc] folds over the neighbors of [u] in
    increasing id order. *)
val fold_neighbors : t -> int -> (int -> float -> 'a -> 'a) -> 'a -> 'a

(** [neighbors c u] is the list of [(v, w)] pairs adjacent to [u], in
    increasing id order. *)
val neighbors : t -> int -> (int * float) list

(** [iter_edges c f] calls [f u v w] once per undirected edge with
    [u < v], in lexicographic order. *)
val iter_edges : t -> (int -> int -> float -> unit) -> unit

(** [edges c] is the array of undirected edges with [u < v], in
    lexicographic order. *)
val edges : t -> Wgraph.edge array

(** [total_weight c] is the sum of all undirected edge weights. *)
val total_weight : t -> float

(** [diff ~before ~after] is [(added, removed)]: the undirected edges
    present only in [after] and only in [before], each sorted by
    [(u, v)] with [u < v]. An edge whose weight changed appears in both
    arrays (old weight removed, new weight added). The snapshots may
    have different vertex counts — vertices absent from one side are
    treated as isolated. O(m_before + m_after). *)
val diff : before:t -> after:t -> Wgraph.edge array * Wgraph.edge array
