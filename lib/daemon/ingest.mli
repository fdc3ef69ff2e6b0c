(** Tail ingest for the daemon: a growing [ubg-churn] trace file.

    The instance prefix is read once at open, then complete batches
    are polled off the tail as the producer appends them. Parsing is
    {!Ubg.Io}'s: {!Ubg.Io.read_trace_prefix} (or, to resume,
    {!Ubg.Io.check_trace_prefix}), {!Ubg.Io.read_batch_header} and
    {!Ubg.Io.read_event}, over a byte source that raises when the file
    holds nothing new yet. This module keeps only that source and the
    batch in progress: the reader holds back a line not yet
    ['\n']-terminated, and a batch whose event lines have not all been
    flushed stays pending until the producer catches up, so only
    complete batches are ever returned.
    One recorded batch is one engine epoch — the same batching an
    offline replay uses, which is what makes a kill/restart resume
    bit-identical to an uninterrupted run. The batch-count line [<B>]
    of the prefix is advisory here — it is the {e tail length} the
    daemon reports sync progress against, but polling past it simply
    returns [None] until more data arrives.

    Socket ingest has no source object: the daemon parses each [EV]
    line with {!Ubg.Io.parse_event}. *)

module Tail : sig
  type t

  (** [open_ ?wait_prefix path] opens a trace and reads its header,
      instance body and batch count. The prefix must be complete on
      disk; with [wait_prefix] (seconds, default [0]) an incomplete
      prefix is read again from the start until the deadline. Raises
      [Failure] naming the file and line on malformed or (past the
      deadline) incomplete input. *)
  val open_ : ?wait_prefix:float -> string -> t

  (** [open_checked ?wait_prefix path] opens a trace to resume from a
      checkpoint: as {!open_}, but the instance body is read into a
      {!Graph.Csr}, checked with {!Ubg.Model.validate} and dropped
      ({!Ubg.Io.check_trace_prefix}). Only its {!shape} is kept; the
      checkpoint holds the state. *)
  val open_checked : ?wait_prefix:float -> string -> t

  (** The instance the prefix holds. Raises [Invalid_argument] on a
      tail from {!open_checked}, which keeps none. *)
  val initial : t -> Ubg.Model.t

  (** The instance's n, dimension and alpha. *)
  val shape : t -> Ubg.Io.shape

  (** The prefix's advisory batch count — the tail length for sync
      progress reports. *)
  val advertised_batches : t -> int

  (** Batches consumed so far (by {!poll} or {!skip}). *)
  val batches_read : t -> int

  (** Events consumed so far. *)
  val events_read : t -> int

  (** [poll t] returns the next complete batch, or [None] when the tail
      has no complete batch yet. Raises [Failure] naming the file and
      line on a malformed line. *)
  val poll : t -> Ubg.Churn.batch option

  (** [skip t n] consumes [n] batches without returning them — the
      resume fast-forward after a checkpoint restore. Re-polls for up
      to [wait] seconds (default [10]) before failing on a tail shorter
      than [n]. *)
  val skip : ?wait:float -> t -> int -> unit

  val close : t -> unit
end
