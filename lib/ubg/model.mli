(** The d-dimensional α-quasi unit ball graph model (paper Section 1.1).

    An instance couples a point placement in [R^d] with a graph on the
    same index set satisfying the α-UBG constraint: pairs at Euclidean
    distance at most [alpha] {e must} be edges, pairs at distance more
    than [1] {e must not} be, and pairs in the gray zone [(alpha, 1]]
    may go either way. Edge weights are the Euclidean distances (the
    algorithms themselves never look at coordinates except through
    pairwise distances and angles, matching the paper's assumption). *)

type t = private {
  alpha : float;  (** quasi-ness parameter, 0 < alpha <= 1 *)
  points : Geometry.Point.t array;  (** vertex embedding *)
  graph : Graph.Wgraph.t;  (** the α-UBG itself, weighted by distance *)
}

(** [make ~alpha points graph] checks the α-UBG constraint and weights
    and packs an instance. Raises [Invalid_argument] when violated
    (tolerance [1e-9] on weights). *)
val make : alpha:float -> Geometry.Point.t array -> Graph.Wgraph.t -> t

(** [validate ~alpha points ~n_vertices ~iter_edges ~mem_edge] is the
    check behind {!make} and {!check}, over a graph in any
    representation: [n_vertices] is its vertex count, [iter_edges f]
    calls [f u v w] once per edge and [mem_edge u v] tests adjacency.
    It requires [0 < alpha <= 1] (so a NaN alpha fails), at least one
    point, one vertex per point, a single dimension, every edge at most
    [1] long and weighted by its length (tolerance [1e-9]), and every
    pair at most [alpha] apart joined by an edge; [Error] names a
    violation. A daemon's resume runs it on the frozen
    graph of a trace's instance, which it checks but does not keep. *)
val validate :
  alpha:float ->
  Geometry.Point.t array ->
  n_vertices:int ->
  iter_edges:((int -> int -> float -> unit) -> unit) ->
  mem_edge:(int -> int -> bool) ->
  (unit, string) result

(** [n t] is the number of nodes. *)
val n : t -> int

(** [dim t] is the ambient dimension. *)
val dim : t -> int

(** [distance t u v] is the Euclidean distance between nodes [u] and
    [v] — the "pairwise distances known to nodes" oracle of the paper. *)
val distance : t -> int -> int -> float

(** [angle t ~apex u v] is the wedge angle at node [apex] spanned by
    nodes [u] and [v]; the covered-edge test of Section 2.2.2 needs it.
    (Realizable from pairwise distances alone by the law of cosines, so
    this stays within the paper's knowledge model.) *)
val angle : t -> apex:int -> int -> int -> float

(** [check t] re-validates the α-UBG constraints, returning an error
    description instead of raising. *)
val check : t -> (unit, string) result

(** [reweight t metric] is a copy of the α-UBG graph whose edge weights
    are mapped through [metric] (Section 1.6.2 energy weights). The
    returned graph shares no structure with [t]. *)
val reweight : t -> Geometry.Metric.t -> Graph.Wgraph.t

val pp : Format.formatter -> t -> unit
