(** Geometric edge-length binning (paper Section 2, opening).

    With [W_i = r^i * alpha / n], bin 0 holds lengths in [I_0 = (0,
    alpha/n]] and bin [i >= 1] holds [I_i = (W_{i-1}, W_i]]. Since no
    α-UBG edge is longer than 1, [m = ceil (log_r (n / alpha))] bins
    suffice; the relaxed greedy algorithm runs one phase per bin, which
    is the source of the [O(log n)] phase count. *)

type t = private {
  r : float;  (** growth factor *)
  alpha : float;
  n : int;  (** number of network nodes *)
  m : int;  (** largest bin index; bins are 0..m *)
  thresholds : float array;
      (** length [m]: [thresholds.(0) = alpha / n] and each next entry
          is the previous one times [r], in float arithmetic; bin
          [i < m] ends at [thresholds.(i)] *)
}

(** [make ~params ~n] derives the binning for an [n]-node input. *)
val make : params:Params.t -> n:int -> t

(** [count b] is the number of bins, [m + 1]. *)
val count : t -> int

(** [w b i] is [W_i = r^i * alpha / n], for [0 <= i <= m]. [w b 0] is
    the top of bin 0. *)
val w : t -> int -> float

(** [index b len] is the bin holding an edge of length [len]: the
    first [i < m] with [len <= thresholds.(i)], else [m]. A binary
    search, O(log m). Requires [0 < len <= 1]. *)
val index : t -> float -> int

(** [interval b i] is the half-open-below interval [(lo, hi]] of bin
    [i]. [lo = 0] for bin 0. *)
val interval : t -> int -> float * float

(** [partition b edges] splits an edge list into an array of [count b]
    edge arrays by length (the [w] field of each edge); preserves
    relative order within a bin. Bin [i] is consumed by phase [i] of
    the array-based edge pipeline. *)
val partition : t -> Graph.Wgraph.edge list -> Graph.Wgraph.edge array array
