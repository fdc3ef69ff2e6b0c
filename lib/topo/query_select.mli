(** Query-edge selection within a bin (paper Section 2.2.2).

    Two filters reduce the bin [E_i] to the set of edges actually
    queried against the cluster graph:

    - {b covered-edge filter}: an edge [{u, v}] is covered when some
      spanner edge [{u, z}] has [|vz| <= alpha] and the wedge angle
      [∠vuz <= theta] (or symmetrically at [v]); by the Czumaj–Zhao
      lemma (Lemma 3) a t-spanner path for it already exists, so it is
      dropped;
    - {b one query per cluster pair}: among surviving candidates with
      endpoints in clusters [(C_a, C_b)], only the edge minimizing
      [t |xy| - sp(a, x) - sp(b, y)] (inequality (1)) is queried; the
      minimizer's fate decides all of [E_i[C_a, C_b]] (Theorem 10).

    Lemma 4 bounds the surviving queries per cluster by a constant;
    experiment E5 measures that count. *)

type selection = {
  query_edges : Graph.Wgraph.edge array;  (** one per populated cluster pair *)
  n_bin_edges : int;  (** |E_i| *)
  n_covered : int;  (** edges dropped by the cone filter *)
  n_candidates : int;  (** [n_bin_edges - n_covered] *)
  max_queries_per_cluster : int;
      (** largest number of query edges incident on one cluster *)
}

(** [select ~points ~spanner ~cover ~params bin_edges] applies both
    filters to [bin_edges] (the current bin, Euclidean-weighted) in one
    pass over the array. [points.(v)] is vertex [v]'s position: the
    cone test needs only pairwise distances and angles, never the
    α-UBG. [spanner] is the phase's frozen snapshot of [G'_{i-1}] on
    the same vertex ids: the cone test walks its sorted adjacency
    slices rather than hashtable buckets. [weight_of_len] (default: identity) maps
    Euclidean lengths into the weight space of [spanner] so that
    inequality (1) compares commensurable quantities under an energy
    metric; the covered-edge geometry always stays Euclidean. *)
val select :
  ?weight_of_len:(float -> float) ->
  points:Geometry.Point.t array ->
  spanner:Graph.Csr.t ->
  cover:Cluster_cover.t ->
  params:Params.t ->
  Graph.Wgraph.edge array ->
  selection

(** [is_covered ~points ~spanner ~params ~u ~v ~len] is the bare
    covered-edge test for [{u, v}] of Euclidean length [len]; exposed
    for the Figure 1 / Lemma 3 property tests. *)
val is_covered :
  points:Geometry.Point.t array ->
  spanner:Graph.Csr.t ->
  params:Params.t ->
  u:int ->
  v:int ->
  len:float ->
  bool
