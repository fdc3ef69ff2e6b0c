(** Churn workloads: node join / leave / move events over an α-UBG.

    The dynamic engine ([Dynamic.Engine]) consumes these traces. Node
    identities are {e slots}: a join reuses the lowest dead slot (or
    extends capacity by one), so a trace replayed against any consumer
    that follows the same policy — [Population.apply] — assigns the
    same ids everywhere. That determinism is what lets recorded traces,
    the engine, and the bit-identical parallel tests agree on ids. *)

type event =
  | Join of Geometry.Point.t  (** a node appears at the given position *)
  | Leave of int  (** the node in this slot dies *)
  | Move of int * Geometry.Point.t  (** the node relocates *)

type batch = event array

(** A recorded workload: the starting instance plus one event batch per
    epoch. Slot ids inside [batches] refer to the shared slot policy
    starting from [initial]'s nodes occupying slots [0..n-1]. *)
type trace = { initial : Model.t; batches : batch array }

val pp_event : Format.formatter -> event -> unit

(** Mutable node population with the deterministic slot policy. *)
module Population : sig
  type t = {
    mutable points : Geometry.Point.t array;
    mutable alive : bool array;
    mutable free : int list;  (** dead slots, ascending *)
    mutable n_alive : int;
  }

  (** [of_points pts] starts with every slot alive. Raises
      [Invalid_argument] on an empty array. *)
  val of_points : Geometry.Point.t array -> t

  (** [capacity p] is the slot-array length (alive + dead). *)
  val capacity : t -> int

  val n_alive : t -> int
  val is_alive : t -> int -> bool

  (** [point p i] raises [Invalid_argument] if slot [i] is dead. *)
  val point : t -> int -> Geometry.Point.t

  (** Alive slot ids, ascending. *)
  val alive_ids : t -> int list

  val iter_alive : t -> (int -> unit) -> unit

  (** [apply p ev] mutates the population and returns the slot the
      event landed on: joins take the lowest free slot (growing
      capacity by one only when none is free), leaves mark the slot
      dead. Raises [Invalid_argument] on a leave/move of a dead slot,
      or a leave that would empty the population. *)
  val apply : t -> event -> int

  (** [restore p ~points ~alive] overwrites the population from a
      snapshot, recomputing the free list; the engine uses it to undo a
      batch that raises. *)
  val restore :
    t -> points:Geometry.Point.t array -> alive:bool array -> unit
end

(** Knobs for the birth-death + random-waypoint generator. Weights are
    relative event frequencies; [speed] is the per-move step length and
    [side] the side of the cube positions are drawn from. *)
type dynamics = {
  join_weight : float;
  leave_weight : float;
  move_weight : float;
  speed : float;
  side : float;
}

(** Even join/leave rates (so the population size random-walks around
    its start), moves twice as likely, speed [0.25]. *)
val default_dynamics : side:float -> dynamics

(** [generate ~seed ~epochs ~batch_max dyn model] draws a trace of
    [epochs] batches of [1..batch_max] events each: a birth-death
    process for joins/leaves and random-waypoint motion for moves
    (each mover walks toward a private uniform waypoint, redrawn on
    arrival). Deterministic in all arguments. Raises
    [Invalid_argument] on non-positive sizes or negative weights. *)
val generate :
  seed:int -> epochs:int -> batch_max:int -> dynamics -> Model.t -> trace

(** Total number of events across all batches. *)
val n_events : trace -> int
