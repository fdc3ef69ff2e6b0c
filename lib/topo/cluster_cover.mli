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
  centers : int array;  (** cluster centers, in creation order *)
  center_of : int array;  (** vertex -> its cluster's center *)
  dist_to_center : float array;
      (** vertex -> [sp_J(center_of v, v)], always [<= radius] *)
  members : (int, int list) Hashtbl.t;  (** center -> member list *)
}

(** [compute_csr j ~radius] builds a cover greedily over a frozen CSR
    snapshot, scanning vertices in id order. Requires [radius >= 0].
    Isolated vertices become singleton clusters. This is the phase
    pipeline's entry point: every ball search runs on the snapshot's
    flat arrays. *)
val compute_csr : Graph.Csr.t -> radius:float -> t

(** [compute j ~radius] is {!compute_csr} after freezing [j]. *)
val compute : Graph.Wgraph.t -> radius:float -> t

(** [compute_csr_limited j ~radius ~max_clusters] is the center list
    of {!compute_csr} without its isolated singletons, with an early
    abort: it returns [None] as soon as the greedy scan would create
    more than [max_clusters] clusters (without paying for the remaining
    balls), and [Some centers] otherwise, in creation order. Degree-0
    vertices (dead slots in capacity-indexed snapshots) are never
    centers and claim nothing; every other vertex lies within [radius]
    of some returned center. Raises [Invalid_argument] on [radius < 0]
    or [max_clusters < 1]. *)
val compute_csr_limited :
  Graph.Csr.t -> radius:float -> max_clusters:int -> int array option

(** [of_centers_csr j ~radius ~centers] builds a cover with the
    prescribed center set: every vertex joins the nearest center (ties
    to the smaller id). Raises [Invalid_argument] if some vertex is
    farther than [radius] from all centers — i.e. [centers] fails to
    dominate, meaning the MIS that produced it was not maximal. *)
val of_centers_csr : Graph.Csr.t -> radius:float -> centers:int list -> t

(** [of_centers j ~radius ~centers] is {!of_centers_csr} after freezing
    [j]. *)
val of_centers : Graph.Wgraph.t -> radius:float -> centers:int list -> t

(** [n_clusters c] is the number of clusters. *)
val n_clusters : c:t -> int

(** [is_valid j c] re-checks the three cover properties on graph [j]
    (coverage, radius, center separation); used by tests and by the
    paranoid mode of the pipeline. *)
val is_valid : Graph.Wgraph.t -> t -> bool
