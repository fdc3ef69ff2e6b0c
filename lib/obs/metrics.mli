(** Metrics registry: counters, gauges, timers and fixed-bucket
    histograms.

    Instruments are registered once by name (idempotent; re-registering
    under a different kind raises [Invalid_argument]) and updated
    through per-domain shard cells, so the write path from pool workers
    is lock-free and allocation-free after each domain's first touch.
    Merged readers fold shards in ascending domain order and must run
    at quiescence — see {!Shard}. Unlike spans, metric updates are not
    gated on {!Control.enabled}: they are a couple of stores each. *)

type t

(** {1 Counters} *)

val counter : string -> t
val incr : t -> unit
val add : t -> int -> unit
val counter_value : t -> int

(** {1 Gauges}

    Last-writer-wins scalars, stored globally (an [Atomic.t]) rather
    than sharded. *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Timers} *)

val timer : string -> t

(** [time t f] accumulates the duration of [f ()] into [t] and counts
    one call. If [f] raises, nothing is recorded. *)
val time : t -> (unit -> 'a) -> 'a

(** [add_seconds t dt] accumulates an externally measured duration into
    [t] and counts one call — for code that cannot wrap the timed region
    in a closure (e.g. a select loop measuring per-request service
    time across callbacks). *)
val add_seconds : t -> float -> unit

(** [timer_value t] is the merged ([total_seconds], [calls]). *)
val timer_value : t -> float * int

(** {1 Histograms}

    [buckets] are strictly increasing upper bounds; a value [v] lands
    in the first bucket with [v <= edge], or in the implicit overflow
    bucket after the last edge. *)

val histogram : string -> buckets:float array -> t

(** [exp_buckets ~lo ~hi ~per_decade] is a log-spaced edge array from
    [lo] to [hi] (both included) with [per_decade] edges per decade —
    the natural bucket shape for latency histograms spanning decades.
    Requires [0 < lo < hi] and [per_decade >= 1]. *)
val exp_buckets : lo:float -> hi:float -> per_decade:int -> float array
val observe : t -> float -> unit

(** [histogram_counts t] has [Array.length edges + 1] entries, the last
    being the overflow bucket. *)
val histogram_counts : t -> int array

val bucket_edges : t -> float array

(** {1 Lifecycle and export} *)

(** [reset t] zeroes one instrument across all shards. *)
val reset : t -> unit

(** [reset_all ()] zeroes every instrument and gauge. *)
val reset_all : unit -> unit

(** [kv ()] is a flat, key-sorted dump of every registered instrument:
    counters as [name]; timers as [name.total_s] / [name.calls];
    histograms as [name.sum] / [name.count] / [name.le_<edge>] /
    [name.le_inf]; gauges as [name]. *)
val kv : unit -> (string * float) list
