(** A small domain pool for the phase pipeline (stdlib only).

    The paper's central trick is that within a weight bin, queries are
    answered against a {e lazily updated} partial spanner, so the work
    items of a phase stage are order-independent by construction. Every
    stage this repository parallelizes reads only frozen {!Graph.Csr}
    snapshots and writes only its own output slot, which makes a plain
    fork-join pool sufficient: no work stealing, no futures.

    One global pool is started lazily on first use. Its size is, in
    decreasing priority: the [?domains] argument of the call, the value
    given to {!set_domains}, the [TOPO_DOMAINS] environment variable,
    or [Domain.recommended_domain_count ()]. Size 1 (or work submitted
    from inside a worker) degrades to plain sequential execution, so
    the library is safe to call unconditionally.

    Every combinator is {b order-preserving}: [map f a] writes [f
    a.(i)] into slot [i] and [map_reduce] folds the mapped slots left
    to right, so results are bit-identical to the sequential execution
    regardless of the pool size — the property the determinism tests
    in [test/test_parallel.ml] pin down. *)

(** [size ()] is the number of domains work is spread over (including
    the calling domain). Starts the pool if needed. *)
val size : unit -> int

(** [set_domains n] makes subsequent work run on [n] domains (the
    current pool, if any, is torn down on the next combinator call).
    Overrides [TOPO_DOMAINS]. Raises [Invalid_argument] on [n <= 0].
    Intended for benchmarks and tests; not safe to call concurrently
    with in-flight work. *)
val set_domains : int -> unit

(** [clear_domains ()] drops the {!set_domains} override, restoring the
    [TOPO_DOMAINS] / recommended-count default. *)
val clear_domains : unit -> unit

(** [set_grain g] fixes the number of items per chunk for subsequent
    combinator calls (a per-call [?grain] still wins). Without any
    setting the grain is adaptive: roughly 6 chunks per domain, so the
    claiming cursor can balance uneven item costs while bookkeeping
    stays a fetch-and-add per chunk. Chunks are contiguous index ranges for every grain, so
    results are bit-identical whatever the setting — the determinism
    suite pins this down. Raises [Invalid_argument] on [g <= 0]. *)
val set_grain : int -> unit

(** [clear_grain ()] drops the {!set_grain} override. *)
val clear_grain : unit -> unit

(** [set_eager_wake true] makes every job submission wake {e all}
    parked workers, instead of the default budget of
    [min (workers, chunks - 1, spare hardware threads)]. The default
    never wakes workers the machine has no idle core for — each such
    wake costs two context switches on the job's critical path and the
    woken worker finds the cursor already drained (the submitting
    domain always participates, so completion never depends on a
    wake). Results are bit-identical either way; only the execution
    schedule changes. The eager mode exists for tests that want to
    force cross-domain chunk execution on small machines, and can also
    be set with [TOPO_EAGER_WAKE=1]. *)
val set_eager_wake : bool -> unit

(** [shutdown ()] joins all worker domains; the pool restarts lazily on
    the next call. Registered via [at_exit] automatically. *)
val shutdown : unit -> unit

(** [run_in_worker ()] is [true] when called from inside a pool task —
    nested submissions run sequentially. *)
val run_in_worker : unit -> bool

(** [sequentially f] runs [f ()] with the calling domain marked as a
    pool worker, so every combinator call inside takes the sequential
    path without touching the shared pool. For background domains
    (e.g. the oracle service's async builder) that must never contend
    with the main pipeline for the pool's submission lock. Every
    combinator is order-preserving, so results are bit-identical to
    the pooled execution. The mark is restored on exit, exceptions
    included. *)
val sequentially : (unit -> 'a) -> 'a

(** [parallel_for n f] runs [f i] for every [i] in [[0, n)], spread
    over the pool in contiguous chunks. [f] must only write state owned
    by iteration [i] (e.g. slot [i] of an output array). The first
    exception raised by any [f i] is re-raised in the caller (remaining
    chunks are skipped, and sibling iterations of the failing chunk do
    not run). *)
val parallel_for : ?domains:int -> ?grain:int -> int -> (int -> unit) -> unit

(** [iter_chunks n f] partitions [[0, n)] into the same contiguous
    chunks [parallel_for] would use and calls [f lo hi] once per chunk
    (sequential path: a single [f 0 n]). Use it when per-chunk setup —
    fetching {!Graph.Dijkstra.domain_workspace}, say — would dominate a
    per-item body: the batch query plane answers a whole chunk from one
    workspace fetch. [f] must only write state owned by item indices in
    [[lo, hi)]; chunk boundaries are deterministic index arithmetic but
    chunk-to-domain assignment is not, so per-chunk side effects other
    than slot writes would be schedule-dependent. Exceptions behave as
    in {!parallel_for}. *)
val iter_chunks :
  ?domains:int -> ?grain:int -> int -> (int -> int -> unit) -> unit

(** [map f a] is [Array.map f a] with the calls to [f] spread over the
    pool; slot order is preserved. *)
val map : ?domains:int -> ?grain:int -> ('a -> 'b) -> 'a array -> 'b array

(** [mapi f a] is [Array.mapi f a], parallel, order-preserving. *)
val mapi :
  ?domains:int -> ?grain:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

(** [map_reduce ~map ~fold ~init a] maps in parallel, then folds the
    results {b left to right} on the calling domain — deterministic
    even for non-commutative [fold]. *)
val map_reduce :
  ?domains:int ->
  ?grain:int ->
  map:('a -> 'b) ->
  fold:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
