(** Atomic engine checkpoints over {!Ubg.Io}'s [ubg-checkpoint]
    format.

    {!save} serialises {!Dynamic.Engine.latest} plus the ingest
    cursor; the write goes to [path ^ ".tmp"] and is renamed into
    place, so a crash mid-write leaves the previous checkpoint intact
    and a reader never observes a torn file. {!restore} is the inverse:
    thaw the file into an engine positioned at the checkpointed epoch,
    ready for the next {!Dynamic.Engine.apply_batch} — which then
    produces epochs bit-identical to a run that never stopped. *)

(** [save ~path ~events engine] checkpoints the engine's latest
    certified snapshot. [events] is the ingest cursor (events consumed
    so far), replayed back through {!cursor} on restore. *)
val save : path:string -> events:int -> Dynamic.Engine.t -> unit

(** [load path] is {!Ubg.Io.load_checkpoint} — separated from
    {!restore} so callers can inspect the cursor before paying for
    re-certification. *)
val load : string -> Ubg.Io.checkpoint

(** The ingest cursor recorded at save time: [(epoch, events)]. In tail
    mode [epoch] is also the number of batches to {!Ingest.Tail.skip}
    on resume. *)
val cursor : Ubg.Io.checkpoint -> int * int

(** [restore ?backend ~params ck] rebuilds a live engine from a
    loaded checkpoint via {!Dynamic.Engine.restore} (which re-certifies
    — a corrupt checkpoint raises [Failure]). [backend] is engine
    configuration, not state; pass the value the original daemon ran
    with. *)
val restore :
  ?backend:Spanner.Backend.t ->
  params:Topo.Params.t ->
  Ubg.Io.checkpoint ->
  Dynamic.Engine.t
