(** Single-source shortest paths (Dijkstra's algorithm).

    Every search entry runs one of three loops, and
    {!update_row_csr} a fourth:

    - the {b unbounded} search on fresh plain arrays, behind
      {!distances} and {!distances_csr}: full single-source distances,
      for callers that want every one (all-pairs analysis). It runs
      over a neighbor iterator and {!Heap}, and is the independent
      reference the other two loops are tested against bit for bit;
    - the {b bounded settle} on a stamped {!workspace}, behind
      {!distance}, {!distance_upto}, {!within}, {!path},
      {!distances_to_csr} and every [_csr], [_ws], [_into], [_parents]
      and [_multi] entry. It takes one or many sources, optional
      early-exit targets, optional tree parents and, on target entries,
      optional {!landmarks} for an A* potential. It stores a relaxed
      label (distance, stamp, heap entry) only when its priority lies
      within the bound, so nothing above the bound is ever stored or
      pushed, and it stops when the heap runs dry or the last target
      is popped:
      cluster balls (Section 2.2.1), exact near-pair distances and
      routes, the oracle's cluster forest, center-graph rows and
      landmark rows, certification, which searches once per source up
      to its farthest base neighbour, and the quasi-UDG spanner's
      view-restricted witness search;
    - the {b hop-bounded} search behind {!hop_bounded_distance},
      {!hop_bounded_distance_csr} and {!hop_bounded_distance_csr_ws}:
      query answering on the cluster graph (Lemma 8);
    - the {b row update} behind {!update_row_csr}: a full search's
      distances carried from one snapshot to the next on the workspace
      heap, re-settling only what changed (the oracle's landmark rows
      under churn).

    {2 Allocation}

    The bounded settle and the hop-bounded search are each written
    once, as a first-order loop over arc slices: a target array, a
    weight array and a range. A {!Csr.t} search reads the snapshot's
    own arrays; a {!Wgraph.t} search copies each expanded vertex's
    hashtable slice (the kept arcs, under [?keep]) into the workspace
    and reads that. The indexed heap and the hop-bounded frontier live
    in the workspace, and the landmark potential is evaluated inline
    from its table. No float crosses a function call inside either
    loop: the dev profile compiles with [-opaque], so no call is
    inlined across modules and a float passed to one is boxed (a
    release-profile build of closure-based loops allocated as much).
    So once a workspace has grown to the graph, every
    [Csr.t] search through a workspace allocates nothing per settled
    vertex, only a small constant per call: {!within_csr_into},
    {!distances_to_csr} (plus its result array),
    {!within_multi_csr_into}, {!settle_parents_csr_ws},
    {!distance_upto_csr_ws} with or without landmarks,
    {!hop_bounded_distance_csr_ws}, and {!update_row_csr} per vertex it
    resets or lowers. A [Wgraph.t] search allocates a
    few words per expanded vertex for the hashtable walk, and the list
    entries allocate their result.

    The bounded and hop-bounded entries without a workspace argument
    run on a private per-domain workspace, never on the one
    {!domain_workspace} returns, so calling them leaves a caller's
    tree in that workspace intact. Like any workspace it serves one
    search at a time: systhreads sharing a domain must not run these
    entries concurrently.

    {2 Potentials (A* toward a target)}

    {!distance_upto_csr_ws} and {!settle_parents_csr_ws} take optional
    {!landmarks}: [m] exact distance rows [D_i], from which the settle
    evaluates, for every vertex [v] it relaxes, the potential
    [h v = max (0, (1 - 2^-30) max_i |D_i(t) - D_i(v)| - 2^-30 B)]
    toward the target [t] under the search bound [B], a NaN term
    (both distances infinite) counting as 0. It is a lower bound on
    [v]'s remaining distance to [t] (Goldberg and Harrelson's ALT).
    The heap priority becomes label + [h v]; labels are relaxed from
    the workspace, never from the popped priority, a label whose
    priority exceeds the bound is not stored, and the search stops when
    the heap runs dry or the target pops.
    Without landmarks the priorities, labels and settle order are
    those of the plain search, bit for bit.

    {b Exactness.} The target's label equals the plain search's label,
    bit for bit, when every vertex [x] on the plain search's tree path
    to the target pops before it: that holds when
    [fl(D(x) + h x) <= D(t)], with [D] the plain search's float labels,
    and [h t = 0]. The unscaled landmark bound [|d(L,t) - d(L,v)|] is
    consistent in exact arithmetic ([h u <= w(u,v) + h v], [h t = 0]),
    and it meets the condition once it is lowered by more than the
    rounding in any label: a float label differs from the real path
    length by at most [n 2^-53] of it. Scaling by [1 - 2^-30] and
    subtracting [2^-30 B] covers that rounding while a landmark's
    distances stay within [2^22 / n] times the bound (about 400 times
    at [n = 10^4]). Rounding that still leaves [h] a hair inconsistent
    ([h u > w(u,v) + h v]) costs a re-pop: an improved label
    re-inserts its vertex even after it was popped, so no label is
    ever wrong. An infinite term is a true bound only when [v] cannot
    reach the target, so rows must hold exact distances, [infinity]
    exactly where unreachable.

    {b Target entries only.} An A* search records no settle trace (a
    re-popped vertex would repeat in it), so ball, forest and
    certifier entries, which read that trace, take no landmarks. *)

(** [distances g src] is the array of shortest-path distances from
    [src]; [infinity] marks unreachable vertices. *)
val distances : Wgraph.t -> int -> float array

(** [distance g src dst] is the shortest-path distance between two
    vertices, [infinity] if disconnected. Early-exits at [dst]. *)
val distance : Wgraph.t -> int -> int -> float

(** [distance_upto g src dst ~bound] is like [distance] but searches
    only within [bound]: no label above [bound] is stored, so the
    answer is the exact distance when it is at most [bound] and
    [infinity] otherwise ("no path within [bound]"). *)
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

(** Landmark distance rows for the A* potential (see {e Potentials}):
    [table.(v * m + i)] is vertex [v]'s exact distance to landmark [i],
    [infinity] when unreachable. *)
type landmarks = { table : float array; m : int }

(** [create_workspace ()] is a fresh empty workspace; it grows to fit
    the largest graph it is used on. *)
val create_workspace : unit -> workspace

(** [domain_workspace ()] is the calling domain's workspace. The entry
    points without a workspace argument never use it. *)
val domain_workspace : unit -> workspace

(** [domain_ball_buffers n] is the calling domain's pair of result
    buffers for {!within_csr_into}, at least [n] long: reused across
    calls, so a stage that runs a ball per center allocates none. Like
    the workspace, they serve one caller at a time on their domain. *)
val domain_ball_buffers : int -> int array * float array

(** [distance_upto_ws ?keep ws g src dst ~bound] is {!distance_upto}
    on [ws]. With [keep] the search runs on the subgraph induced by
    [src] and the vertices [keep] accepts: only kept neighbours are
    relaxed, so [dst] is reached only through kept vertices and only
    when it is kept itself. *)
val distance_upto_ws :
  ?keep:(int -> bool) ->
  workspace ->
  Wgraph.t ->
  int ->
  int ->
  bound:float ->
  float

val within_ws :
  workspace -> Wgraph.t -> int -> bound:float -> (int * float) list

(** [distance_upto_csr_ws ?landmarks ws c src dst ~bound] is
    {!distance_upto_csr} on [ws], an A* search toward [dst] when
    [landmarks] are given (see {e Potentials} above; the answer is the
    plain search's bit for bit). Raises [Invalid_argument] when the
    landmark table holds fewer than [n * m] entries. *)
val distance_upto_csr_ws :
  ?landmarks:landmarks ->
  workspace ->
  Csr.t ->
  int ->
  int ->
  bound:float ->
  float

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

(** [settle_parents_csr_ws ?landmarks ws c src ~target ~bound] runs
    the bounded shortest-path-tree search from [src] toward [target],
    an A* search when [landmarks] are given, and leaves the tree in the
    workspace, to be read in place through {!ws_parent}, with no
    copy-out. It stops when [target] pops, so when [target] lies
    within [bound] its parent chain leads back to [src] over edges
    that sum to its label: a shortest path. The tree is valid until
    the workspace's next search. Raises [Invalid_argument] on an
    out-of-range source or target. *)
val settle_parents_csr_ws :
  ?landmarks:landmarks ->
  workspace ->
  Csr.t ->
  int ->
  target:int ->
  bound:float ->
  unit

(** Tree parent from the last {e parents} search, [-1] when untouched
    (a vertex whose labels all lay beyond the bound, say) or the
    source. Exact at settled vertices; a touched but unsettled
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
    forest ([Oracle.Dist]) and, from a single center with bound
    [infinity] over the center graph, each row of its distance and
    first-hop tables. Raises [Invalid_argument] on an
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

(** {2 Row updates} *)

(** [update_row_csr ws ~before ~after ~removed ~added ~src ~rows ~col]
    carries a distance row from one snapshot to the next in place.
    Column [col] of [rows] ([rows.table.(v * rows.m + col)]) must hold
    [src]'s distances in [before], [infinity] at the slots [after] grew
    by, and [(added, removed)] must be {!Csr.diff}[ ~before ~after].
    Afterwards the column holds [src]'s distances in [after], bit for
    bit {!within_csr_into} with bound [infinity] (the dynamic
    single-source update of Ramalingam and Reps, J. Algorithms 21,
    1996):

    - {b deletions}: candidates, first the heads of removed arcs that
      were tight ([fl(D(p) + w) = D(x)]), pop in increasing old label.
      A candidate keeps its label when an arc of [after] is tight into
      it from a vertex with a strictly smaller label that kept its own;
      otherwise it is reset, and its tight arcs in [before] make their
      heads candidates;
    - {b re-settle}: each reset vertex is seeded from its kept
      neighbours and each inserted arc's head from its tail, and one
      settle on the workspace heap propagates every decrease.

    Each label is the least [fl(D(p) + w)] over its neighbours, whatever
    the order the search met them in, which is why the result is the
    scratch search's. The cost is the arcs of the vertices reset or
    lowered, not the graph's; the source's own arcs may change too.
    Raises [Invalid_argument] when [after] has fewer vertices than
    [before], [src] is out of range, or [rows] has no column [col] for
    [after]'s vertices. *)
val update_row_csr :
  workspace ->
  before:Csr.t ->
  after:Csr.t ->
  removed:Wgraph.edge array ->
  added:Wgraph.edge array ->
  src:int ->
  rows:landmarks ->
  col:int ->
  unit
