(** Well-separated pair decompositions and WSPD spanners
    (Callahan–Kosaraju).

    The paper's Section 1.4 situates its algorithm within the
    computational-geometry literature on spanners of complete Euclidean
    graphs; the WSPD spanner is the classic non-greedy member of that
    family and serves as the reference baseline in experiment E14. A
    split tree is built by halving bounding boxes along their longest
    side; two subsets are [s]-well-separated when they fit in balls of
    radius [r] at center distance at least [s * r]. Picking one edge
    per pair yields a t-spanner of the complete graph for
    [s = 4 (t + 1) / (t - 1)], with O(s^d n) pairs.

    Works in any dimension [>= 2]. *)

type pair = { left : int list; right : int list }
(** One well-separated pair, as index lists into the point array. *)

(** [decompose ~separation points] computes a WSPD with the given
    [separation > 0]: every unordered point pair appears in exactly one
    [pair]. Requires at least 2 points, no duplicates. *)
val decompose : separation:float -> Geometry.Point.t array -> pair list

(** [spanner ~t points] is the WSPD t-spanner of the complete Euclidean
    graph over [points]: one representative edge per pair at
    [separation = 4 (t+1) / (t-1)]. Requires [t > 1]. *)
val spanner : t:float -> Geometry.Point.t array -> Graph.Wgraph.t

(** [is_well_separated ~separation points pair] re-checks the
    separation criterion (smallest enclosing ball approximated by the
    bounding-box ball); exposed for tests. *)
val is_well_separated :
  separation:float -> Geometry.Point.t array -> pair -> bool
