(** Mutable undirected graphs with float edge weights.

    Vertices are the integers [0 .. n-1] fixed at creation; edges carry a
    strictly positive weight. This is the shared substrate for the input
    α-UBG, the partial spanners [G'_i], the cluster graphs [H_i], and
    every baseline topology. *)

type t

type edge = { u : int; v : int; w : float }

(** [compare_edge a b] is the canonical edge order: by weight
    ([Float.compare]), then [u], then [v]. Every weight-ordered edge
    scan (the relaxed greedy's binning, SEQ-GREEDY, the dynamic
    engine's dirty repair) sorts with it, so a build is a function of
    the edge set rather than of a builder's insertion history. *)
val compare_edge : edge -> edge -> int

(** [create n] is the edgeless graph on [n >= 0] vertices. *)
val create : int -> t

(** [n_vertices g] is the number of vertices. *)
val n_vertices : t -> int

(** [n_edges g] is the number of edges. *)
val n_edges : t -> int

(** [add_edge g u v w] inserts (or reweights) the undirected edge
    [{u, v}]. Requires [u <> v], vertices in range and [w > 0]. *)
val add_edge : t -> int -> int -> float -> unit

(** [add_edge_min g u v w] inserts the edge if absent, or lowers its
    weight to [w] when the existing weight is larger (keep-min
    semantics — the invariant every spanner insertion relies on).
    Returns whether a {e new} edge was created. *)
val add_edge_min : t -> int -> int -> float -> bool

(** [remove_edge g u v] removes the edge if present; returns whether an
    edge was removed. *)
val remove_edge : t -> int -> int -> bool

(** [mem_edge g u v] tests edge presence. *)
val mem_edge : t -> int -> int -> bool

(** [weight g u v] is [Some w] if the edge exists, else [None]. *)
val weight : t -> int -> int -> float option

(** [degree g u] is the number of edges incident on [u]. *)
val degree : t -> int -> int

(** [neighbors g u] is the list of [(v, w)] pairs adjacent to [u], in
    unspecified order. *)
val neighbors : t -> int -> (int * float) list

(** [iter_neighbors g u f] calls [f v w] for each neighbor of [u]. *)
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

(** [fold_neighbors g u f acc] folds over the neighbors of [u]. *)
val fold_neighbors : t -> int -> (int -> float -> 'a -> 'a) -> 'a -> 'a

(** [iter_edges g f] calls [f u v w] once per edge with [u < v]. *)
val iter_edges : t -> (int -> int -> float -> unit) -> unit

(** [edges g] lists every edge once, with [u < v], in unspecified
    order. *)
val edges : t -> edge list

(** [of_edges ~n es] builds a graph on [n] vertices from an edge list. *)
val of_edges : n:int -> (int * int * float) list -> t

(** [copy g] is an independent deep copy. *)
val copy : t -> t

(** [union g h] adds every edge of [h] into [g] (in place); on common
    edges the minimum weight wins. Requires equal vertex counts. *)
val union : t -> t -> unit

(** [total_weight g] is the sum of all edge weights (the paper's
    [w(G)]). *)
val total_weight : t -> float

(** [max_degree g] is [Δ(g)], 0 on the edgeless graph. *)
val max_degree : t -> int

(** [avg_degree g] is [2 * n_edges / n_vertices] (0 when empty). *)
val avg_degree : t -> float

(** [is_symmetric_consistent g] checks internal adjacency symmetry —
    an invariant audit used by the test suite. *)
val is_symmetric_consistent : t -> bool

val pp : Format.formatter -> t -> unit
