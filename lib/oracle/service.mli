(** RCU-style epoch publication of oracles.

    The serving plane is one atomic cell holding the current epoch's
    triple [{epoch; csr; oracle}]. Readers — any number of domains,
    concurrently — grab the triple with a single [Atomic.get] and
    answer queries against it lock-free; the triple is immutable, so a
    reader keeps a consistent view for as long as it holds the value,
    even across publications. The writer builds the next epoch's
    oracle off to the side and installs it with one compare-and-set;
    OCaml's memory model makes the atomic store a release point, so a
    reader that observes the new entry observes the fully built
    oracle. Installation is {e monotonic by epoch} — a late or
    duplicate build can never regress the served entry. Old entries
    are unlinked, not reclaimed — the GC collects them once the last
    reader drops its reference, which is what makes the grace period
    free.

    Construction is incremental where it can be: each epoch's oracle
    is {!Dist.repair}ed forward from the previous one using the
    engine's [snap_dirty] payload, falling back to a scratch
    {!Dist.build} whenever the dirty chain is broken (first epoch,
    missed epochs) or the cover degraded (see {!Dist.repair}).

    Each service owns labelled gauges
    [oracle.published_epoch.<label>] and [oracle.build_seconds.<label>]
    (the {!Obs.Control.now} time of the last construction, repair or
    scratch), so
    two services in one process — the daemon's and a bench's, say —
    no longer clobber each other's metrics. Give services distinct
    labels when you run more than one. *)

type entry = {
  epoch : int;
  csr : Graph.Csr.t;  (** the spanner snapshot the oracle covers *)
  oracle : Dist.t;
}

type t

(** [current s] is the latest published entry — one atomic load. *)
val current : t -> entry

(** [of_csr ?eps ?label csr] publishes a static epoch-0 entry; the
    serving cell for workloads without a dynamic engine. [label]
    (default ["static"]) names the service's gauges. *)
val of_csr : ?eps:float -> ?label:string -> Graph.Csr.t -> t

(** [attach ?eps ?label ?async engine] builds and
    publishes an oracle for the engine's current snapshot, then
    registers a {!Dynamic.Engine.on_epoch} hook that constructs and
    republishes after every batch, repairing forward from the
    previously published oracle whenever the snapshot's [snap_dirty]
    chain allows it. The attach re-checks {!Dynamic.Engine.latest}
    after registering, so an epoch published concurrently with the
    attach is picked up rather than lost until the next batch
    (publication being idempotent by epoch makes the race harmless).

    With [async:false] (the default) construction runs on the
    engine's domain inside [apply_batch], and the published entry
    tracks the engine epoch synchronously — serving reads are never
    blocked either way, they keep the previous entry until the
    install. With [async:true] the hook only enqueues the snapshot
    and a dedicated builder domain drains the queue in epoch order,
    so [apply_batch] never waits on oracle construction — the daemon's
    ingest path. The queue is bounded (32 epochs); past that the
    backlog is dropped and the newest epoch is scratch-built. Use
    {!flush} to wait for the builder to catch up and {!shutdown} to
    drain and join it.

    [eps] is frozen at attach time, so every construction uses it;
    [label] defaults to ["engine"].

    A {!Dynamic.Engine.restore}d engine has no hooks — re-attach (a
    fresh [attach]) after every restore; the first epoch after a
    resume is a scratch build by construction. *)
val attach :
  ?eps:float ->
  ?label:string ->
  ?async:bool ->
  Dynamic.Engine.t ->
  t

(** [publish s ~epoch csr] constructs and installs an entry by hand
    (tests and static pipelines): always a scratch build. No-op when
    [epoch] is not newer than the published entry. Synchronous even on
    an [async] service — don't mix manual publishes with a live engine
    hook unless idempotent publication is what you want. *)
val publish : t -> epoch:int -> Graph.Csr.t -> unit

(** [flush s] blocks until the async builder's queue is empty and no
    construction is in flight (returns immediately on a synchronous
    service), then re-raises the first builder exception, if any. *)
val flush : t -> unit

(** [shutdown s] stops the async builder after it drains its queue,
    joins the domain, and re-raises its first exception, if any.
    No-op on a synchronous service. Further engine epochs fall back
    to synchronous construction inside the hook. *)
val shutdown : t -> unit

(** Cumulative per-service accounting (monotonic except [pending]). *)
type service_stats = {
  label : string;
  published_epoch : int;
  repairs : int;  (** epochs served by {!Dist.repair} *)
  scratch_builds : int;  (** scratch builds, initial + fallbacks included *)
  repair_fallbacks : int;  (** repairs that declined and rebuilt *)
  pending : int;  (** async jobs queued or in flight right now *)
  builder_failed : bool;
      (** the async builder has raised at least once. The first
          exception is logged by name when it is caught (source
          ["oracle.service"], error level); serving goes on from the
          last published oracle. Sticky: {!flush} and {!shutdown}
          re-raise that exception but leave this set. *)
}

val stats : t -> service_stats
