(** Incremental spanner maintenance under churn.

    The engine owns an α-UBG over a {!Ubg.Churn.Population} and a
    certified [t]-spanner of it, and applies batched join / leave /
    move events without recomputing the spanner from scratch. Node
    identities are capacity slots (dead slots stay as isolated vertices
    until a join reuses them), so graphs never renumber across epochs.
    The engine keeps one epoch: the {!latest} certified snapshot, whose
    [snap_ubg] is its only copy of the α-UBG, and the live spanner
    ({!spanner}) that the repair edits.

    Repair is local. A batch first derives the next α-UBG from the
    latest one ({!Graph.Csr.isolate} drops the edges of touched slots,
    {!Graph.Csr.add_edges} adds the ones re-derived through a unit-cell
    {!Geometry.Grid} and the gray-zone policy), drops the spanner edges
    incident to touched nodes, then marks {e dirty} base edges: edge
    [{u, v}] of length [len] is dirty when some endpoint lies within
    [(t + 1e-9)·len/2] of a touched position, [t + 1e-9] being the
    largest stretch certification accepts. That is the witness radius:
    a certified path for [{u, v}] through a touched node [x] satisfies
    [d(u,x) + d(x,v) <= (t + 1e-9)·len], so one endpoint is within
    [(t + 1e-9)·len/2] of [x]; edges farther away than that from every
    touched position kept their witness path untouched (DESIGN.md §10).

    Every dirty edge then takes [SEQ-GREEDY]'s exact rule, in
    ascending [(w, u, v)] order: one Dijkstra bounded by [t·len] on the
    live spanner, and the edge joins the spanner when that search finds
    no path. Repairs only {e add} edges, never remove surviving spanner
    edges, so certified paths persist within a repair; when the dirty
    fraction crosses [rebuild_threshold] the engine falls back to a
    full rebuild.

    Every epoch is re-certified from scratch with
    {!Topo.Verify.edge_stretch_csr}: the new α-UBG against a frozen
    {!Graph.Csr} copy of the live spanner. Its search from each vertex
    stops at the vertex's farthest base neighbour, so certification
    settles a t-ball per vertex, not the whole graph: 13–16 ms per
    epoch at n = 10⁴ (E-churn, [BENCH_dynamic.json]), where one search
    per vertex over the whole graph took 13–15 s. A certification
    failure triggers a full rebuild. A batch that raises (an event
    naming a dead slot, or a rebuild that fails certification) puts
    the population and the spanner back to the latest snapshot, so the
    engine stays at its last certified epoch. *)

type snapshot = {
  snap_epoch : int;
  snap_points : Geometry.Point.t array;  (** per-slot positions *)
  snap_alive : bool array;
  snap_ubg : Graph.Csr.t;  (** the α-UBG, capacity-indexed *)
  snap_spanner : Graph.Csr.t;
  snap_stretch : float;  (** certified stretch at that epoch *)
  snap_dirty : int array;
      (** sorted, deduplicated endpoints of every spanner edge that
          changed since the previous snapshot ({!Graph.Csr.diff} on
          consecutive spanners) — the dirty region consumers such as
          {!Oracle.Service} repair from. Empty on the epoch-0 snapshot
          and on the snapshot {!restore} starts from, where no previous
          spanner exists to diff against. A vertex absent from
          [snap_dirty] has byte-identical incident spanner edges in
          both epochs. *)
}

(** Why an epoch's spanner was produced the way it was. *)
type repair_kind =
  | Incremental  (** dirty-region repair *)
  | Rebuild_threshold  (** dirty fraction exceeded the threshold *)
  | Rebuild_cert_failure  (** incremental result failed certification *)
  | Rebuild_backend
      (** the configured backend has no incremental repair path; the
          epoch was a per-batch rebuild-with-certification *)

(** Per-epoch accounting returned by {!apply_batch}. *)
type report = {
  epoch : int;  (** epoch just produced *)
  n_events : int;
  n_alive : int;
  n_ubg_edges : int;
  n_spanner_edges : int;
  n_dirty : int;  (** dirty base edges *)
  dirty_fraction : float;  (** [n_dirty / n_ubg_edges] *)
  kind : repair_kind;
  stretch : float;  (** certified; always [<= t + 1e-9] on return *)
  max_degree : int;
  repair_seconds : float;  (** repair work, excluding certification *)
  certify_seconds : float;
}

type t

(** [create ?backend ?gray ?rebuild_threshold ?clock ~params model]
    builds the initial spanner, certifies it, and snapshots epoch 0.
    [params] must match the model's alpha and dimension.

    [backend] selects the construction strategy. Omitted, the engine
    calls {!Topo.Relaxed_greedy.build} directly for full builds and
    runs the incremental dirty-region repair. With an [incremental]
    backend (the registry's ["relaxed"]) the repair path is kept and
    only full rebuilds route through the backend, so replays are
    bit-identical to the default's. With a {e non-incremental}
    backend the engine degrades to per-epoch
    rebuild-with-certification: every batch rebuilds via the backend
    (reported as {!Rebuild_backend}); dirty marking still runs so
    reports stay comparable. Certification is always against
    [params.t], so a backend whose construction cannot meet it (LMST,
    XTC, Yao/Theta advertise no stretch) fails [create] or the first
    batch — pick a backend with [advertised_stretch <= t].

    [gray] (default [Keep_all]) re-decides gray-zone pairs incident to
    joined or moved nodes. [rebuild_threshold] (default [0.3]) is the
    dirty fraction above which a batch falls back to a full rebuild;
    [Invalid_argument] unless it lies in [(0, 1]]. [clock] (default
    {!Obs.Control.now}, the wall clock unless a test replaces it) times
    repairs and rebuilds. It stays an argument only because the
    perfbench harness ([perfbench/main.ml]) passes its own. *)
val create :
  ?backend:Spanner.Backend.t ->
  ?gray:Ubg.Gray_zone.t ->
  ?rebuild_threshold:float ->
  ?clock:(unit -> float) ->
  params:Topo.Params.t ->
  Ubg.Model.t ->
  t

(** The backend chosen at {!create} ([None] = historic relaxed-greedy
    path). *)
val backend : t -> Spanner.Backend.t option

(** [apply_batch t events] applies one epoch's events and repairs +
    certifies the spanner. The batch is atomic: it raises
    [Invalid_argument] on an event naming a dead slot, and [Failure]
    if even a full rebuild fails certification, and either way the
    engine is first put back to {!latest}, as if the batch had never
    been applied. *)
val apply_batch : t -> Ubg.Churn.event array -> report

(** Replay convenience: [replay t trace ~f] applies every batch of
    [trace] in order, calling [f] on each report. *)
val replay : t -> Ubg.Churn.trace -> f:(report -> unit) -> unit

(** {2 Introspection} *)

val epoch : t -> int
val n_alive : t -> int
val params : t -> Topo.Params.t

(** The live spanner, capacity-indexed (dead slots are isolated),
    which the repair edits in place. Callers must not mutate it. The
    α-UBG is [(latest t).snap_ubg]. *)
val spanner : t -> Graph.Wgraph.t

(** [current_model t] compacts the alive slots of {!latest} into a
    fresh validated {!Ubg.Model.t}; the returned array maps compact ids
    back to slots (ascending). *)
val current_model : t -> Ubg.Model.t * int array

(** Wall-clock seconds of the most recent full rebuild (initial build
    counts) — the per-epoch rebuild cost estimate printed by
    [topoctl churn]. *)
val last_rebuild_seconds : t -> float

(** (incremental epochs, full rebuilds — threshold- or backend-driven,
    certification failures). *)
val counters : t -> int * int * int

(** {2 Snapshots} *)

(** The latest certified epoch, the only one the engine keeps. A caller
    that wants two consecutive epochs reads it before and after
    {!apply_batch}. *)
val latest : t -> snapshot

(** [on_epoch t f] registers [f] to run on each new snapshot, on the
    domain calling {!apply_batch}, after certification succeeds and
    the snapshot becomes {!latest} but before the report is returned —
    the publish hook the oracle serving plane attaches to. Hooks fire in
    registration order and are never unregistered; {!create}'s
    epoch-0 snapshot does not fire them (register-then-publish
    yourself via {!latest}), nor does a batch that raises. A hook that
    raises aborts the batch {e after} the epoch was committed — keep
    hooks total. *)
val on_epoch : t -> (snapshot -> unit) -> unit

(** [weight_ratio snap] is the spanner's total weight over the weight
    of a minimum spanning forest of the α-UBG, at [snap]'s epoch. It
    runs one MST of the whole base graph, which is why {!apply_batch}
    leaves it to the callers that print it. *)
val weight_ratio : snapshot -> float

(** {2 State restore}

    The persistence surface behind [Ubg.Io]'s [ubg-checkpoint] format
    and the daemon's checkpointer. A {!snapshot} already is the full
    engine state at an epoch boundary (apply_batch only reads the
    population, the two graphs and the parameters), so the state to
    persist is {!latest} and restore rebuilds a live engine around a
    snapshot. *)

(** [restore ?backend ~params snap] reconstructs an engine positioned
    at [snap]'s epoch without rebuilding the spanner: the population
    and spanner are thawed from the snapshot, the spanner is
    re-certified against [snap_ubg] (a corrupt or mismatched checkpoint
    raises [Failure]), and the result becomes the engine's snapshot.
    Subsequent {!apply_batch} calls produce bit-identical epochs to an
    uninterrupted engine that reached [snap]'s epoch the long way — the
    resume guarantee the daemon's kill/restart test pins. [backend]
    means what it means in {!create}; it is configuration, not state,
    and must be re-given on restore. A restored engine times its work
    with {!Obs.Control.now} and runs with {!create}'s default gray-zone
    policy and rebuild threshold.

    {!on_epoch} hooks are configuration too, not state: a restored
    engine starts with {e no} registered hooks, exactly like a fresh
    {!create}. Every consumer that outlives a checkpoint cycle (the
    daemon's oracle service, trace sinks, …) must re-attach after
    [restore] — see [Daemon.Runtime], which re-runs
    [Oracle.Service.attach] on the restored engine explicitly. The
    restored snapshot's [snap_dirty] is empty for the same reason:
    there is no previous epoch in the new engine to diff against, so
    re-attached consumers must treat the resume epoch as a
    from-scratch publication. *)
val restore :
  ?backend:Spanner.Backend.t ->
  params:Topo.Params.t ->
  snapshot ->
  t
