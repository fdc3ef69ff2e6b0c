(** Axis-parallel bucket grids over point sets: the one spatial index.

    Points are hashed into cubic cells of side [cell]; every query
    scans only the cells that a ball of radius at most [cell] can
    meet, at most [3^d] of them. Uses: α-UBG edge enumeration and
    validation ({!iter_close_pairs}), the dynamic engine's edge
    re-derivation and the Gabriel/RNG witness scan ({!iter_within}),
    and the relaxed greedy's per-phase regions ({!mark_within}). *)

type t

(** [build ~cell points] indexes [points] (identified by array index)
    into cells of side [cell]. Requires [cell > 0] and a nonempty,
    dimension-homogeneous point array. *)
val build : cell:float -> Point.t array -> t

(** [iter_within t ~radius p f] calls [f j dist] once for every indexed
    point [j] at distance [dist <= radius] from [p]. [p] need not be
    indexed; if it is, [f] also sees it, at distance 0. Requires
    [radius <= cell] and [p] of the grid's dimension. *)
val iter_within : t -> radius:float -> Point.t -> (int -> float -> unit) -> unit

(** [mark_within t ~radius centres] is the indicator array, over the
    indexed points, of the union of the closed balls of radius [radius]
    around [centres]: [j] is marked iff
    [Point.distance points.(j) c <= radius] for some centre [c]. The
    centres are bucketed by cell, and each point in a cell next to a
    centre's cell is tested only against the centres of its [3^d]
    neighbouring cells, its own cell first, until the first hit:
    heavily overlapping balls cost about one test per point, not one
    per ball. Requires [radius <= cell] and centres of the grid's
    dimension. *)
val mark_within : t -> radius:float -> Point.t array -> bool array

(** [iter_close_pairs t ~radius f] calls [f i j dist] once for every
    unordered pair [(i, j)], [i < j], at distance [dist <= radius].
    Requires [radius <= cell]. *)
val iter_close_pairs : t -> radius:float -> (int -> int -> float -> unit) -> unit
