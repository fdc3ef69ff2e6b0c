(** Single-source shortest paths (Dijkstra's algorithm).

    Every entry point runs one of three loops, each written once over
    an abstract neighbor iterator:

    - the {b unbounded} search on fresh plain arrays, behind
      {!distances} and {!distances_csr}: full single-source distances,
      for callers that want every one (all-pairs analysis);
    - the {b bounded settle} on a stamped {!workspace}, behind
      {!distance}, {!distance_upto}, {!within}, {!path},
      {!distances_to_csr} and every [_csr], [_ws], [_into], [_parents]
      and [_multi] entry. It takes one or many sources, optional
      early-exit targets and optional tree parents, and stops once the
      frontier exceeds the bound or the last target is popped: cluster
      balls (Section 2.2.1), exact near-pair distances and routes, the
      oracle's cluster forest, and certification, which searches once
      per source up to its farthest base neighbour;
    - the {b hop-bounded} search behind {!hop_bounded_distance},
      {!hop_bounded_distance_csr} and {!hop_bounded_distance_csr_ws}:
      query answering on the cluster graph (Lemma 8).

    The bounded and hop-bounded entries without a workspace argument
    run on a private per-domain workspace, never on the one
    {!domain_workspace} returns, so calling them leaves a caller's
    tree in that workspace intact. Like any workspace it serves one
    search at a time: systhreads sharing a domain must not run these
    entries concurrently. *)

(** [distances g src] is the array of shortest-path distances from
    [src]; [infinity] marks unreachable vertices. *)
val distances : Wgraph.t -> int -> float array

(** [distance g src dst] is the shortest-path distance between two
    vertices, [infinity] if disconnected. Early-exits at [dst]. *)
val distance : Wgraph.t -> int -> int -> float

(** [distance_upto g src dst ~bound] is like [distance] but abandons the
    search once every frontier label exceeds [bound]; any return value
    greater than [bound] means "no path within [bound]". *)
val distance_upto : Wgraph.t -> int -> int -> bound:float -> float

(** [within g src ~bound] is the list of [(v, d)] with
    [d = sp(src, v) <= bound], including [(src, 0)], in
    nondecreasing-distance (settle) order. This is the cluster-ball
    primitive of Section 2.2.1. *)
val within : Wgraph.t -> int -> bound:float -> (int * float) list

(** [path g src dst] is the vertex sequence of a shortest path from
    [src] to [dst] (inclusive), or [None] if disconnected. *)
val path : Wgraph.t -> int -> int -> int list option

(** [hop_bounded_distance g src dst ~max_hops ~bound] is the length of a
    shortest path from [src] to [dst] that uses at most [max_hops] edges
    and has length at most [bound]; [infinity] when no such path exists.
    Implements the bounded-hop query of Lemma 8 by dynamic programming
    over hop counts (Bellman-Ford style), so it is exact even though
    hop-constrained prefixes of shortest paths are not themselves
    shortest. *)
val hop_bounded_distance :
  Wgraph.t -> int -> int -> max_hops:int -> bound:float -> float

(** {2 CSR snapshot variants}

    Identical semantics to the functions above, over an immutable
    {!Csr.t} snapshot instead of a mutable {!Wgraph.t}. These are the
    hot-path entry points: the phase pipeline freezes the partial
    spanner once per phase and answers every ball, query and
    hop-bounded search against the flat arrays. *)

val distances_csr : Csr.t -> int -> float array

(** [distances_to_csr c src ~targets] is the array of
    [sp(src, targets.(i))], [infinity] where unreachable: bit for bit
    the values {!distances_csr} returns at those vertices. The search
    stops once the last distinct target is popped, so it settles only
    vertices closer to [src] than its farthest target, plus some tied
    with it. An unreachable target makes it settle all of [src]'s
    component; an empty [targets] settles nothing. Repeated targets
    and [src] itself are fine. Raises [Invalid_argument] on an
    out-of-range source or target. This is the certifier's search
    ([Topo.Verify.edge_stretch_csr]). *)
val distances_to_csr : Csr.t -> int -> targets:int array -> float array

val distance_csr : Csr.t -> int -> int -> float
val distance_upto_csr : Csr.t -> int -> int -> bound:float -> float
val within_csr : Csr.t -> int -> bound:float -> (int * float) list

val hop_bounded_distance_csr :
  Csr.t -> int -> int -> max_hops:int -> bound:float -> float

(** {2 Reusable workspaces}

    A {!workspace} amortizes a bounded search's scratch state across
    calls: previous results are invalidated by an epoch bump (O(1)),
    not a refill, and the internal heap is recycled. A bounded search
    records the vertices it settles on a touched-vertex stack, so
    results are read off the settle trace: the search never scans,
    allocates or frees anything proportional to the whole graph in
    steady state. The [_ws] variants run the same loop as their plain
    counterparts on the caller's workspace, so every returned distance,
    and the settle order of every ball, is bit-identical to them.

    A workspace serves one search at a time and must not be shared
    between domains; {!domain_workspace} returns a per-domain instance
    (via [Domain.DLS]), which is what the parallel phase stages use so
    that each pool worker reuses its own scratch state. *)

type workspace

(** [create_workspace ()] is a fresh empty workspace; it grows to fit
    the largest graph it is used on. *)
val create_workspace : unit -> workspace

(** [domain_workspace ()] is the calling domain's workspace. The entry
    points without a workspace argument never use it. *)
val domain_workspace : unit -> workspace

val distance_upto_ws :
  workspace -> Wgraph.t -> int -> int -> bound:float -> float

val within_ws :
  workspace -> Wgraph.t -> int -> bound:float -> (int * float) list

val distance_upto_csr_ws :
  workspace -> Csr.t -> int -> int -> bound:float -> float

val within_csr_ws :
  workspace -> Csr.t -> int -> bound:float -> (int * float) list

(** [within_csr_into ws c src ~bound ~out_v ~out_d] is the
    allocation-free {!within_csr_ws}: the ball's vertices and distances
    are written to the caller-owned buffers [out_v] / [out_d] (in
    settle order, the same sequence the list variants return) and the
    number of entries filled is returned. Raises [Invalid_argument]
    when a buffer is smaller than the ball; buffers of length
    [Csr.n_vertices c] are always large enough. *)
val within_csr_into :
  workspace ->
  Csr.t ->
  int ->
  bound:float ->
  out_v:int array ->
  out_d:float array ->
  int

(** [settle_parents_csr_ws ws c src ~bound] runs the bounded
    shortest-path-tree search from [src] and leaves the tree in the
    workspace, to be read in place through {!ws_parent}, with no
    copy-out. The tree is valid until the workspace's next search. *)
val settle_parents_csr_ws : workspace -> Csr.t -> int -> bound:float -> unit

(** Tree parent from the last {e parents} search, [-1] when untouched
    (or the source). Exact at settled vertices; a touched but unsettled
    frontier vertex reports its tentative parent, so walks should start
    from a vertex known to be settled. After a parentless search the
    value is stale: only use after {!settle_parents_csr_ws}. *)
val ws_parent : workspace -> int -> int

(** [within_multi_csr_into ws c ~srcs ~bound ~out_v ~out_d ~out_p]
    grows the shortest-path forest of every source at once: one search
    seeded with all of [srcs] at distance [0]. It settles every vertex
    within [bound] of {e some} source and writes, in settle
    (nondecreasing-label) order, the vertex to [out_v], its label to
    [out_d] and its forest parent to [out_p] ([-1] at a source); it
    returns the count. Each label is bit for bit the minimum over
    sources of {!distances_csr}. A parent settles before its child, so
    one pass over the output in order can carry anything from a root
    down its tree, and every parent chain ends at a source after edges
    that sum, from that source, to the label. Duplicate sources are
    fine; an empty [srcs] settles nothing. This is the oracle's cluster
    forest ([Oracle.Dist]). Raises [Invalid_argument] on an
    out-of-range source, or when a buffer is shorter than
    [Csr.n_vertices c]. *)
val within_multi_csr_into :
  workspace ->
  Csr.t ->
  srcs:int array ->
  bound:float ->
  out_v:int array ->
  out_d:float array ->
  out_p:int array ->
  int

val hop_bounded_distance_csr_ws :
  workspace -> Csr.t -> int -> int -> max_hops:int -> bound:float -> float
