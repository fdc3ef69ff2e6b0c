(** Atomic engine checkpoints over {!Ubg.Io}'s [ubg-checkpoint]
    format.

    {!save} serialises {!Dynamic.Engine.latest} plus the ingest
    cursor; the write goes to [path ^ ".tmp"] and is renamed into
    place, so a crash mid-write leaves the previous checkpoint intact
    and a reader never observes a torn file. {!load} reads the file
    straight into the engine's frozen snapshot ({!Ubg.Io.load_checkpoint_csr}),
    and {!restore} is the inverse of {!save}: an engine positioned at
    the checkpointed epoch, ready for the next
    {!Dynamic.Engine.apply_batch} — which then produces epochs
    bit-identical to a run that never stopped. *)

(** A loaded checkpoint. *)
type t = {
  snapshot : Dynamic.Engine.snapshot;
      (** the certified epoch, both graphs as the file's parser froze
          them; [snap_dirty] is empty *)
  events : int;  (** the ingest cursor: events consumed so far *)
  alpha : float;  (** the α the engine ran with *)
}

(** [save ~path ~events engine] checkpoints the engine's latest
    certified snapshot. [events] is the ingest cursor (events consumed
    so far), replayed back through {!cursor} on restore. *)
val save : path:string -> events:int -> Dynamic.Engine.t -> unit

(** [load path] reads a checkpoint, with every check of
    {!Ubg.Io.load_checkpoint_csr}; raises [Failure] naming the file and
    line. Separate from {!restore} so callers can inspect the cursor
    and the shape before paying for re-certification. *)
val load : string -> t

(** The ingest cursor recorded at save time: [(epoch, events)]. In tail
    mode [epoch] is also the number of batches to {!Ingest.Tail.skip}
    on resume. *)
val cursor : t -> int * int

(** [restore ?backend ~params ck] rebuilds a live engine from a
    loaded checkpoint via {!Dynamic.Engine.restore}, which certifies
    the snapshot as given (a corrupt checkpoint raises [Failure]) and
    thaws only the live spanner. [backend] is engine configuration, not
    state; pass the value the original daemon ran with. *)
val restore :
  ?backend:Spanner.Backend.t -> params:Topo.Params.t -> t -> Dynamic.Engine.t
