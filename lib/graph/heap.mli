(** Indexed binary min-heaps over integer keys with float priorities.

    Supports the decrease-key operation needed by Dijkstra's algorithm.
    Keys are integers in [0, capacity); each key may be present at most
    once. *)

type t

(** [create capacity] is an empty heap accepting keys in
    [0, capacity). *)
val create : int -> t

val is_empty : t -> bool
val size : t -> int

(** [mem t k] tests whether key [k] is currently in the heap. *)
val mem : t -> int -> bool

(** [priority t k] is the current priority of key [k]. Raises
    [Not_found] if absent. *)
val priority : t -> int -> float

(** [insert t k p] inserts key [k] with priority [p]. Raises
    [Invalid_argument] if [k] is already present or out of range. *)
val insert : t -> int -> float -> unit

(** [decrease t k p] lowers the priority of present key [k] to [p].
    Raises [Invalid_argument] if [p] is larger than the current
    priority, [Not_found] if [k] is absent. *)
val decrease : t -> int -> float -> unit

(** [insert_or_decrease t k p] inserts [k], or lowers its priority if
    already present and [p] improves on it; a no-op otherwise. *)
val insert_or_decrease : t -> int -> float -> unit

(** [pop_min t] removes and returns the (key, priority) pair of minimum
    priority. Raises [Not_found] on an empty heap. *)
val pop_min : t -> int * float

(** [peek_min t] is the minimum pair without removing it. Raises
    [Not_found] on an empty heap. *)
val peek_min : t -> int * float
