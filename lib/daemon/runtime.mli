(** The daemon itself: ingest, epoch clock, certify-then-publish,
    serve, checkpoint.

    Two domains. The {e engine domain} owns the write side: it pulls
    churn events from the configured source, batches them per tick of
    the epoch {!Clock}, drives {!Dynamic.Engine.apply_batch} (repair,
    certify) whose [on_epoch] hook rebuilds and RCU-publishes the
    distance oracle ({!Oracle.Service.attach}), and checkpoints engine
    state on the configured cadence plus once at shutdown. The
    {e serving domain} (the caller of {!run}) owns the read side: the
    {!Server} select loop answering queries off the published entry,
    lock-free against the writer.

    With a checkpoint path configured, {!run} resumes from an existing
    checkpoint file. It decides so before it opens its source: a
    resume only checks the source's instance and keeps its shape (no
    model is built), loads the checkpoint straight into the engine's
    snapshot and requires it to fit the source's header (the same
    dimension, alpha equal bit for bit, a capacity of at least the
    header's n). The engine is restored at its certified epoch
    (re-certified on load), the tail is fast-forwarded past the
    consumed batches, and ingest continues mid-history — producing
    epochs bit-identical to a run that was never stopped. Sync progress
    is logged as [epoch X / tail Y, Z ev/s]. [STATS] reports what each
    start-up step took: [daemon.start.source_ms],
    [daemon.start.checkpoint_ms], [daemon.start.engine_ms] and
    [daemon.start.oracle_ms]. *)

type source =
  | Tail of string  (** follow a growing [ubg-churn] trace file *)
  | Socket_ingest of string
      (** instance file; events arrive as [EV] frames and are batched
          per clock tick. A batch the engine rejects (say, a slot out
          of range) is dropped, logged and counted in [STATS]
          [ingest.dropped_batches], and the daemon goes on; in tail
          mode such a batch stops the daemon, since a recorded trace
          must replay whole. *)

type config = {
  socket : string;  (** Unix-domain socket path to serve on *)
  source : source;
  checkpoint : string option;  (** checkpoint file; [None] disables *)
  eps : float;  (** spanner target stretch is [1 + eps] *)
  oracle_eps : float;  (** published oracle's advertised slack *)
  period : float;  (** epoch clock period, seconds; [0] = unpaced *)
  checkpoint_every_epochs : int;  (** [0] disables the epoch trigger *)
  checkpoint_every_seconds : float;  (** [0] disables the timer trigger *)
  backend : Spanner.Backend.t option;  (** as in {!Dynamic.Engine.create} *)
  quit_at_tail : bool;
      (** stop once the tail's advertised batches are all applied
          (benches and smoke tests; an interactive daemon keeps
          following) *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT handlers that trigger a clean stop —
          final checkpoint included (the CLI sets this; tests don't) *)
  tick : float;  (** server wake-up bound, seconds *)
}

(** Tail source, no checkpointing, [eps = 0.5], [oracle_eps = 0.5],
    unpaced clock, [quit_at_tail = false], no signal handlers. *)
val default : socket:string -> source:source -> config

type summary = {
  final_epoch : int;
  epochs_applied : int;  (** by this process (excludes resumed history) *)
  events_applied : int;
  checkpoints_written : int;
  requests_served : int;
}

(** [run ?stop config] runs the daemon on the calling domain (plus the
    engine domain it spawns) until [stop] is set — by a [SHUTDOWN]
    request, a handled signal, [quit_at_tail], or the caller flipping
    the flag it passed in. Raises [Failure] on a malformed trace,
    checkpoint, or socket path, and on a checkpoint that does not fit
    its source, naming both. *)
val run : ?stop:bool Atomic.t -> config -> summary

(** {2 In-process handle} — tests and benches run the whole daemon on a
    spawned domain and talk to it over the socket. *)

type handle

val start : ?stop:bool Atomic.t -> config -> handle

(** Flip the stop flag and join. Idempotent [join] after [stop] is not
    supported — call exactly one of them. *)
val stop : handle -> summary

(** Wait for the daemon to stop on its own ([quit_at_tail], SHUTDOWN). *)
val join : handle -> summary
