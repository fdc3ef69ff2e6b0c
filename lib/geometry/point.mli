(** Points and vectors in d-dimensional Euclidean space.

    A point is an immutable array of float coordinates. All operations
    raise [Invalid_argument] when their arguments have mismatched
    dimensions. The same type doubles as a vector type for the few
    vector-space operations needed by the spanner algorithms (cone
    membership tests, angle computations). *)

(** The coordinates themselves. A hot loop may read them through the
    coercion [(p :> float array)], with no copy and no boxed float per
    coordinate (the covered test of [Topo.Query_select] does); it must
    never write them. *)
type t = private float array

(** [create coords] builds a point from a coordinate array. The array is
    copied, so later mutation of [coords] does not affect the point.
    Raises [Invalid_argument] if [coords] is empty. *)
val create : float array -> t

(** [of_list coords] is [create (Array.of_list coords)]. *)
val of_list : float list -> t

(** [make2 x y] is the 2-dimensional point [(x, y)]. *)
val make2 : float -> float -> t

(** [make3 x y z] is the 3-dimensional point [(x, y, z)]. *)
val make3 : float -> float -> float -> t

(** [dim p] is the number of coordinates of [p]. *)
val dim : t -> int

(** [coord p i] is the [i]-th coordinate of [p] (0-indexed). *)
val coord : t -> int -> float

(** [coords p] is a fresh array of the coordinates of [p]. *)
val coords : t -> float array

(** [origin d] is the all-zeros point of dimension [d]. *)
val origin : int -> t

(** [distance p q] is the Euclidean distance between [p] and [q]. *)
val distance : t -> t -> float

(** [sq_distance p q] is the squared Euclidean distance; cheaper than
    [distance] when only comparisons are needed. *)
val sq_distance : t -> t -> float

(** [norm v] is the Euclidean norm of [v] viewed as a vector. *)
val norm : t -> float

(** [sub p q] is the vector [p - q]. *)
val sub : t -> t -> t

(** [add p v] is the translate of [p] by the vector [v]. *)
val add : t -> t -> t

(** [scale c v] multiplies every coordinate of [v] by [c]. *)
val scale : float -> t -> t

(** [dot u v] is the inner product of [u] and [v]. *)
val dot : t -> t -> float

(** [midpoint p q] is the point halfway between [p] and [q]. *)
val midpoint : t -> t -> t

(** [normalize v] is the unit vector in the direction of [v]. Raises
    [Invalid_argument] on the zero vector. *)
val normalize : t -> t

(** [angle ~apex p q] is the angle, in radians within [0, pi], of the
    wedge [p]-[apex]-[q]. Raises [Invalid_argument] if [p] or [q]
    coincides with [apex]. *)
val angle : apex:t -> t -> t -> float

(** [lerp p q u] is the point [(1-u)p + uq]. *)
val lerp : t -> t -> float -> t

(** [equal ?eps p q] tests coordinate-wise equality up to absolute
    tolerance [eps] (default [1e-12]). *)
val equal : ?eps:float -> t -> t -> bool

(** [compare p q] is a total lexicographic order on points. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [random ~st ~dim ~lo ~hi] draws a point uniformly from the cube
    [\[lo, hi\]^dim] using the random state [st]. *)
val random : st:Random.State.t -> dim:int -> lo:float -> hi:float -> t

(** [random_in_ball ~st ~center ~radius] draws a point uniformly from the
    Euclidean ball of the given center and radius (by rejection from the
    bounding cube). *)
val random_in_ball : st:Random.State.t -> center:t -> radius:float -> t

(** [segment_point_distance a b p] is the distance from point [p] to the
    closed segment \[a, b\]. Used by line-of-sight obstruction tests. *)
val segment_point_distance : t -> t -> t -> float
