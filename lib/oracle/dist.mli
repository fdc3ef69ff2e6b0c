(** Approximate distance / routing oracle over a frozen spanner
    snapshot.

    The oracle is the read side of the system: it is built once per
    epoch from an immutable {!Graph.Csr.t} (typically a
    [Dynamic.Engine] spanner snapshot) and then answers point-to-point
    queries without touching the builder again. Its landmarks come from
    the paper's own cluster machinery (Section 2.2.1): a Das–Narasimhan
    greedy cover of radius [rho] picks [k = O(sqrt n)] centers. The
    clusters are the trees of one shortest-path forest grown from every
    center at once: each vertex joins its nearest center, and the oracle
    stores

    - per vertex: its cluster index, its exact distance to its own
      center (its forest label), and its forest parent (the [up]
      pointer). A parent always lies in the same tree, so every
      up-chain stays in its cluster and ends at its own center after
      exactly that distance;
    - per center pair: the center-graph distance through {e portal}
      edges (for two adjacent clusters, the crossing spanner edge
      minimizing [d(a,x) + w(x,y) + d(y,b)]) in a flat [k x k]
      row-major matrix, plus the first center hop of that path.

    Every portal cost is the length of a real walk (down one tree,
    across the edge, up the other), so the landmark estimate
    [L = d(u,c_u) + dmat(c_u,c_v) + d(c_v,v)] is the length of a walk
    and never underestimates. Queries split on [L]:

    - {b near} ([L <= near_bound], with
      [near_bound = 4 rho (1 + 1/eps)]): the true distance is at most
      [L], so a bounded workspace Dijkstra with bound [L] returns the
      {e exact} distance at the cost of a small ball scan;
    - {b far}: [L] itself is returned in O(1) — two cluster lookups
      and one matrix read, no allocation, no search. The [(1+eps)]
      envelope is conditional: whenever the center-graph detour costs
      at most [4 rho] over the true distance, far answers are within
      [1 + eps] of the snapshot distance, hence within [(1+eps) t] of
      the base-graph distance when the snapshot is a certified
      [t]-spanner. [dmat] is a distance in the center graph, not
      between centers in the snapshot, so nothing bounds the detour in
      general; the E-qps bench and the oracle tests check the envelope
      on sampled pairs.

    Routing follows the same split: near routes are exact shortest
    paths read off the bounded search's parent tree; far routes ascend
    [u]'s up-chain to its center, walk the center chain through the
    portals, and descend to [v] — a spanner walk of length exactly [L].
    The route tests check this on instances where a fifth of the
    sampled pairs are far.

    The oracle is immutable after {!build}; any number of domains may
    query one concurrently, each through its own {!query_ws}. *)

type t

(** {1 Building} *)

(** [build ?eps ?max_clusters csr] precomputes an oracle over [csr].

    [eps > 0] (default [0.5]) is the oracle's advertised slack — it
    only moves the near/far threshold, trading preprocessing-free far
    answers against exact-search near answers. [max_clusters] (default
    [4 sqrt n], at least 16) caps the landmark count: the cover radius
    starts at four times the mean edge weight and doubles until the
    greedy cover fits, so the [k x k] tables stay compact whatever the
    weight scale. Isolated vertices (dead capacity slots in engine
    snapshots) join no cluster and answer [infinity] / no-route.

    The forest is one sequential search; the [k] center-graph
    searches run on the {!Parallel.Pool} with slot-disjoint rows, so
    the result is bit-identical for every pool size. Raises
    [Invalid_argument] on [eps <= 0] or [max_clusters < 1]. *)
val build : ?eps:float -> ?max_clusters:int -> Graph.Csr.t -> t

(** {1 Incremental repair} *)

type repair_result = {
  oracle : t;  (** valid over the new snapshot either way *)
  repaired : bool;  (** [false] = fell back to a scratch {!build} *)
  fallback : string option;  (** why repair declined, when it did *)
  affected_clusters : int;
      (** clusters whose member set or member distances changed (or
          [k] on fallback) *)
  repair_seconds : float;  (** wall time, including any fallback build *)
}

(** [repair ?max_clusters ~prev ~dirty csr] updates [prev] to the new
    snapshot [csr] without recomputing the cover: it keeps [prev]'s
    centers, radius and eps and regrows the cluster forest over [csr]
    from the centers that are still live (degree > 0). A live vertex
    the forest leaves farther than the radius from every center is
    exactly where a scratch greedy would start a cluster, so repair
    mints centers there, in id order, each claiming its radius ball as
    the greedy would, and grows the forest once more. Every live
    vertex then lies within [radius] of its center, and every table
    value is the length of a real walk in [csr], so the repaired
    oracle keeps the contract of a scratch build: it never
    underestimates, far routes are walks of length [L], and the
    envelope holds under the same detour condition. It may differ from
    a scratch build bit for bit (the centers are kept, not re-chosen).
    To keep the envelope honest at the near/far boundary, a repaired
    oracle widens its near band by one center-detour allowance
    ([4 x radius] on top of the build formula): the kept cover's
    detour can drift a few percent past a fresh build's exactly-tight
    bound, so boundary pairs are answered exactly and far answers
    retain a margin. The widening is a function of (radius, eps) only
    — chained repairs do not inflate it further.

    [dirty] should list every vertex whose incident spanner edges
    changed, exactly [Dynamic.Engine]'s [snap_dirty] payload. The
    repair does not rely on it for soundness: it only feeds the
    dirty-fraction gate, and [dirty = [||]] returns [prev] re-pointed
    at [csr] (with per-vertex tables grown for new, necessarily
    isolated, slots) and no cluster affected.

    Repair falls back to a scratch {!build} (with [prev]'s [eps] and
    the given [max_clusters]) when patching is not worth it: the
    snapshot capacity shrank, [prev] has no cluster or [csr] no edge,
    the radius-doubling floor [4 x mean edge weight] outgrew [prev]'s
    radius by more than one doubling step, more than a quarter of the
    vertices are dirty, more than a quarter of [prev]'s clusters are
    affected, or minting pushed the cluster count past the cap a
    scratch build would use. [repaired]/[fallback] say which case you
    got.

    The forest and the minting are sequential; the center tables are
    pool-parallel with slot-disjoint rows — the result is bit-identical
    for every pool size, like {!build}. Raises [Invalid_argument] when
    [dirty] contains an out-of-range vertex. *)
val repair :
  ?max_clusters:int ->
  prev:t ->
  dirty:int array ->
  Graph.Csr.t ->
  repair_result

(** The snapshot the oracle was built over. *)
val csr : t -> Graph.Csr.t

(** {1 Introspection} *)

type stats = {
  n : int;  (** snapshot vertices *)
  n_edges : int;
  n_clusters : int;  (** landmark count [k] *)
  radius : float;  (** cover radius [rho] after doubling *)
  eps : float;
  near_bound : float;  (** [4 rho (1 + 1/eps)], plus [4 rho] once repaired *)
  build_seconds : float;
  table_words : int;  (** words held by the flat oracle arrays *)
}

val stats : t -> stats

(** {1 Query workspaces}

    A workspace owns every buffer a query needs — the bounded-search
    Dijkstra workspace, the parent-overlay scratch and the cached
    route — so the query hot path allocates nothing in steady state
    (buffers grow to the largest instance seen, then are reused). One
    workspace serves one query at a time and must not be shared
    between domains. *)

type query_ws

val create_query_ws : unit -> query_ws

(** The calling domain's private workspace (via [Domain.DLS]). *)
val domain_query_ws : unit -> query_ws

(** {1 Queries} *)

(** [distance_estimate t ws u v] is [0] when [u = v], [infinity] when
    the vertices are in different components (or either is isolated),
    the exact snapshot distance on the near path and the landmark
    walk length [L] on the far path — never less than the true
    snapshot distance. *)
val distance_estimate : t -> query_ws -> int -> int -> float

(** [distance_batch_into t ~u ~v ~out] answers [out.(i) <-
    distance_estimate u.(i) v.(i)] for every [i], spread over the pool
    in contiguous chunks ({!Parallel.Pool.iter_chunks}); each chunk
    fetches its domain's workspace once. Results are bit-identical to
    the sequential loop for every pool size. Raises
    [Invalid_argument] when the arrays disagree in length. *)
val distance_batch_into :
  ?domains:int -> t -> u:int array -> v:int array -> out:float array -> unit

(** [spanner_path t ws ~src ~dst] materializes the route the oracle
    would forward along: the exact shortest path on the near path, the
    ascend/portal-chain/descend walk (of length exactly the far
    estimate) otherwise. A far walk may pass a vertex twice, [dst]
    included: climbing through [dst] to its center and back down.
    [None] when unreachable. Allocates the result array; use
    {!next_hop} on hot paths. *)
val spanner_path : t -> query_ws -> src:int -> dst:int -> int array option

(** [next_hop t ws u ~dst] is the next vertex on the oracle's route
    from [u] to [dst] (the one {!spanner_path} returns), [-1] when
    [u = dst], [-2] when unreachable. Forwarding stops at the first
    arrival at [dst], so it costs the estimate, or less on a far walk
    that passes [dst] early.
    The workspace caches the current route: repeated calls along it
    ([u] advancing hop by hop toward the same [dst], the forwarding
    pattern) are O(1) array reads; any deviation recomputes from the
    new holder. *)
val next_hop : t -> query_ws -> int -> dst:int -> int
