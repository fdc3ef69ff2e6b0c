(** Cluster covers of a partial spanner (paper Section 2.2.1).

    A cluster cover of radius [radius] of a graph [J] is a set of
    clusters [{C_u1, C_u2, ...}] such that every vertex of [J] is in
    some cluster, each member [v] of [C_u] has [sp_J(u, v) <= radius],
    and distinct centers are more than [radius] apart in [sp_J]. The
    sequential construction grows clusters greedily with bounded
    Dijkstra; the distributed construction (Section 3.2.1) instead takes
    centers from an MIS of the "mutual-coverage" graph, which this
    module can also consume via {!of_centers}. *)

type t = private {
  radius : float;
  centers : int array;
      (** cluster centers, ascending (the greedy creates them in id
          order; {!of_centers_csr} sorts the set it is given) *)
  center_of : int array;  (** vertex -> its cluster's center *)
  dist_to_center : float array;
      (** vertex -> [sp_J(center_of v, v)], always [<= radius] *)
}

(** [compute_csr j ~radius] builds a cover greedily over a frozen CSR
    snapshot, scanning vertices in id order. Requires [radius >= 0].
    Isolated vertices become singleton clusters. This is the phase
    pipeline's entry point: every ball search runs on the snapshot's
    flat arrays. *)
val compute_csr : Graph.Csr.t -> radius:float -> t

(** [compute j ~radius] is {!compute_csr} after freezing [j]. *)
val compute : Graph.Wgraph.t -> radius:float -> t

(** [compute_csr_limited j ~radius ~max_clusters ~covered] runs the
    greedy of {!compute_csr} over the vertices not already [covered]
    and returns the centers it creates, in creation order, with an
    early abort: [None] as soon as the scan would create more than
    [max_clusters] clusters (without paying for the remaining balls).
    Degree-0 vertices (dead slots in capacity-indexed snapshots) are
    never centers and claim nothing; every other vertex not in
    [covered] ends within [radius] of some returned center. From an
    all-[false] [covered] the centers are {!compute_csr}'s without its
    isolated singletons: the oracle's radius doubling. From the
    vertices its kept clusters already hold, they are the centers its
    repair mints. [covered] is read, not modified. Raises
    [Invalid_argument] on [radius < 0], [max_clusters < 1], or when
    [covered] is not of length [Csr.n_vertices j]. *)
val compute_csr_limited :
  Graph.Csr.t ->
  radius:float ->
  max_clusters:int ->
  covered:bool array ->
  int array option

(** [of_centers_csr j ~radius ~centers] builds a cover with the
    prescribed center set (in any order, repeats ignored): every vertex
    joins the nearest center (ties to the smaller id). Raises [Invalid_argument] if some vertex is
    farther than [radius] from all centers — i.e. [centers] fails to
    dominate, meaning the MIS that produced it was not maximal. *)
val of_centers_csr : Graph.Csr.t -> radius:float -> centers:int list -> t

(** [of_centers j ~radius ~centers] is {!of_centers_csr} after freezing
    [j]. *)
val of_centers : Graph.Wgraph.t -> radius:float -> centers:int list -> t

(** [n_clusters c] is the number of clusters. *)
val n_clusters : c:t -> int

(** [is_valid j c] re-checks the three cover properties on graph [j]
    (coverage, radius, center separation), reading each cluster's
    members off [center_of]; used by tests. *)
val is_valid : Graph.Wgraph.t -> t -> bool
