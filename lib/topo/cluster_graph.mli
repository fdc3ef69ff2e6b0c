(** The Das–Narasimhan cluster graph [H_{i-1}] (paper Section 2.2.3).

    Given the partial spanner [G'_{i-1}] and a cluster cover of radius
    [delta * W_{i-1}], the cluster graph has the same vertex set,
    an intra-cluster edge [{a, x}] for every member [x] of cluster
    [C_a], and an inter-cluster edge [{a, b}] between centers such that
    either [sp_{G'}(a, b) <= W_{i-1}] or some spanner edge crosses
    between [C_a] and [C_b]. All cluster-edge weights are genuine
    [sp_{G'}] distances, so path lengths in [H] dominate those in [G']
    and approximate them within [(1+6delta)/(1-2delta)] (Lemma 7).

    Shortest-path queries for bin-[i] edges are answered on [H] with a
    hop budget of [2 + ceil (t r / delta)] (Lemma 8), which makes the
    search exact for the accept/reject decision.

    [H] is built flat and never materializes a mutable graph:
    per-center balls fan out over the pool in contiguous chunks
    appending to per-chunk arenas (recycled across calls), and the arcs
    are emitted straight into plain [int] / [float] arrays, every slice
    in id order, adopted by {!Graph.Csr.of_arrays}, which only
    validates them. A pair of centers is recorded at the smaller one
    (centers ascend), with the weight its search found; no weight
    passes through a function call per partner, so nothing is boxed.
    Crossings are stamps: before its ball is read, a center stamps
    every center that a spanner arc out of one of its members reaches
    (the members come from one counting sort of the cover's
    [center_of]), and a ball partner farther than [W_{i-1}] qualifies
    exactly when it is stamped. Nothing is sorted per phase, and at
    [ε = 0.5], where nearly every cluster is a singleton, a center's
    stamps cost its own few arcs. [H] is therefore an ordinary
    {!Graph.Csr.t}, searched by the same Dijkstra core as the
    spanner. *)

type t = private {
  hcsr : Graph.Csr.t;  (** frozen snapshot of H; all queries run here *)
  w_prev : float;  (** the bin threshold [W_{i-1}] *)
  cover : Cluster_cover.t;
  inter_degree : int array;  (** center -> number of inter-cluster edges *)
}

(** [build_csr ~spanner ~cover ~w_prev] constructs [H] from the frozen
    snapshot of [G' = spanner] and a cover of radius [<= w_prev]. The
    phase pipeline passes the snapshot it already holds, so [G'] is
    frozen exactly once per phase. [H] itself is frozen on return and
    every subsequent {!query} runs against that snapshot. *)
val build_csr :
  spanner:Graph.Csr.t -> cover:Cluster_cover.t -> w_prev:float -> t

(** [build ~spanner ~cover ~w_prev] is {!build_csr} after freezing
    [spanner]. *)
val build :
  spanner:Graph.Wgraph.t -> cover:Cluster_cover.t -> w_prev:float -> t

(** [to_wgraph h] thaws [H] into a fresh mutable graph — analysis and
    test convenience, not a hot path. *)
val to_wgraph : t -> Graph.Wgraph.t

(** [query h ~params ~x ~y ~len] decides a bin edge's fate:
    [`Short_path d] when [H] has an [x]-[y] path of length [d <= t *
    len] within the Lemma 8 hop budget (the edge is skipped), or
    [`No_path] (the edge joins the spanner). *)
val query :
  t -> params:Params.t -> x:int -> y:int -> len:float ->
  [ `Short_path of float | `No_path ]

(** [sp_upto h ~max_hops x y ~bound] is the length of a shortest
    [<= max_hops]-hop [x]-[y] path in [H] of length [<= bound],
    [infinity] if none; the primitive behind {!query} and the
    redundancy conditions of Section 2.2.5. *)
val sp_upto : t -> max_hops:int -> int -> int -> bound:float -> float

(** [max_inter_degree h] is the largest number of inter-cluster edges
    at any center — the quantity Lemma 6 bounds by a constant. *)
val max_inter_degree : t -> int
