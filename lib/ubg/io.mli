(** Plain-text persistence for instances, topologies, churn traces and
    engine checkpoints: the only parser of these line formats.

    Every file starts with a versioned header [<family> vK]. Writers
    emit the current version; readers accept all shipped versions of
    their family, including the pre-versioning bare [ubg-instance] /
    [ubg-topology] headers (read as v1).

    Instance format (line-oriented, `#` comments allowed):
    {v
    ubg-instance v2
    <n> <dim> <alpha>
    <x_1> ... <x_dim>        (n point lines)
    <m>
    <u> <v>                  (m edge lines; weights are recomputed
                              from the coordinates on load)
    v}
    v1 and the unversioned legacy header carry the identical body.

    Topology files reference an instance's vertex ids:
    {v
    ubg-topology v1
    <n> <m>
    <u> <v>                  (m edge lines)
    v}

    Churn traces embed the starting instance body followed by the
    event batches ([Churn.trace]):
    {v
    ubg-churn v1
    <instance body as above, without its header>
    <B>                      (number of batches)
    batch <k>                (then k event lines, each one of:)
    join <x_1> ... <x_dim>
    leave <slot>
    move <slot> <x_1> ... <x_dim>
    v}

    Every reader validates what it reads: n, dim and a checkpoint's
    capacity are at least 1; every count (edges, batches, events per
    batch) and a checkpoint's epoch and event count are at least 0; an
    edge joins two distinct in-range ids at a positive distance; an
    instance passes {!Model.make}. Each malformed input raises
    [Failure "<file>: line <k>: <what>"], whichever entry reads it. A
    count is never trusted for an allocation: one larger than the file
    fails at the file's end. *)

(** [save_instance path model] writes [model] to [path]. *)
val save_instance : string -> Model.t -> unit

(** [load_instance path] reads an instance; raises [Failure] naming
    the line on malformed input. *)
val load_instance : string -> Model.t

(** [save_topology path g] writes the edge list of [g]. *)
val save_topology : string -> Graph.Wgraph.t -> unit

(** [load_topology path ~model] reads a topology and weighs its edges
    by the Euclidean distances of [model]; raises [Failure] naming the
    line if its vertex count is not [model]'s or an edge is not an edge
    of [model]. *)
val load_topology : string -> model:Model.t -> Graph.Wgraph.t

(** [save_trace path trace] writes a churn trace (initial instance +
    event batches). *)
val save_trace : string -> Churn.trace -> unit

(** [load_trace path] reads a churn trace through the readers below;
    raises [Failure] naming the line on malformed input. Slot ids are
    validated only on replay, not on load. *)
val load_trace : string -> Churn.trace

(** {2 Line readers}

    The trace grammar, for readers that take their lines elsewhere (the
    daemon's tail, its socket [EV] lines). *)

(** Numbered lines from a source. *)
type reader

(** [reader ~name next] reads the lines [next ()] returns, [None] at
    the end of input. Blank and [#] comment lines are skipped. What
    [next] raises passes through every reader untouched, and a line
    counts only once taken, so a source that raises when no line is
    ready yet can be read again later. [name] (a file name) prefixes
    every error. *)
val reader : name:string -> (unit -> string option) -> reader

(** [fail r fmt ...] raises [Failure "<name>: line <k>: <message>"] at
    [r]'s last line taken. *)
val fail : reader -> ('a, unit, string, 'b) format4 -> 'a

(** [read_trace_prefix r] reads a trace's header, instance body and
    batch count: [(initial, batches)]. *)
val read_trace_prefix : reader -> Model.t * int

(** [read_batch_header r] reads a [batch <k>] line and returns [k]. *)
val read_batch_header : reader -> int

(** [read_event r ~dim] reads one event line ({!parse_event}). *)
val read_event : reader -> dim:int -> Churn.event

(** [parse_event ~dim line] parses one event line of the grammar above
    ([dim] coordinates per point); [Error] says what is wrong. *)
val parse_event : dim:int -> string -> (Churn.event, string) result

(** {2 Engine checkpoints}

    Full dynamic-engine state at an epoch boundary, as primitive data
    (this library cannot see [Dynamic.Engine]; the engine provides
    export/restore on its side). Slots are capacity-indexed — dead
    slots keep their last position, because the engine's grid indexes
    every stored coordinate. Format:
    {v
    ubg-checkpoint v1
    <epoch> <events> <cap> <dim> <alpha> <stretch>
    <alive 0|1> <x_1> ... <x_dim>      (cap slot lines)
    <m_ubg>
    <u> <v>                            (weights recomputed on load)
    <m_spanner>
    <u> <v>
    end
    v}
    Coordinates are printed with [%.17g] so doubles round-trip exactly;
    edge weights are re-derived from them, which is exact because every
    engine edge weight {e is} the Euclidean distance of its endpoints.
    The trailing [end] sentinel makes truncation detectable. *)
type checkpoint = {
  ck_epoch : int;  (** engine epoch the state was certified at *)
  ck_events : int;  (** ingest cursor: events consumed so far *)
  ck_alpha : float;
  ck_points : Geometry.Point.t array;  (** capacity-indexed *)
  ck_alive : bool array;
  ck_ubg : Graph.Wgraph.t;  (** capacity-indexed; dead slots isolated *)
  ck_spanner : Graph.Wgraph.t;
  ck_stretch : float;  (** certified stretch recorded at save time *)
}

(** [save_checkpoint path ck] writes [ck] to [path] (not atomic —
    callers that overwrite a live checkpoint should write to a
    temporary and rename, as [Daemon.Checkpoint] does). *)
val save_checkpoint : string -> checkpoint -> unit

(** [load_checkpoint path] reads a checkpoint; raises [Failure] naming
    the line on malformed, truncated or wrong-version input, and
    validates edges (as above, with endpoints alive and no spanner edge
    missing from the α-UBG). *)
val load_checkpoint : string -> checkpoint
