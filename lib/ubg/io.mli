(** Plain-text persistence for instances, topologies, and churn traces.

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
    v} *)

(** [save_instance path model] writes [model] to [path]. *)
val save_instance : string -> Model.t -> unit

(** [load_instance path] reads an instance; raises [Failure] with a
    line-numbered message on malformed input. *)
val load_instance : string -> Model.t

(** [save_topology path g] writes the edge list of [g]. *)
val save_topology : string -> Graph.Wgraph.t -> unit

(** [load_topology path ~model] reads a topology and weighs its edges
    by the Euclidean distances of [model]; raises [Failure] if an edge
    is not an edge of [model] or ids are out of range. *)
val load_topology : string -> model:Model.t -> Graph.Wgraph.t

(** [save_trace path trace] writes a churn trace (initial instance +
    event batches). *)
val save_trace : string -> Churn.trace -> unit

(** [load_trace path] reads a churn trace; raises [Failure] with a
    line-numbered message on malformed input. Slot ids are validated
    only on replay, not on load. *)
val load_trace : string -> Churn.trace

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

(** [load_checkpoint path] reads a checkpoint; raises [Failure] with a
    line-numbered message on malformed, truncated or wrong-version
    input, and validates edge ids (in range, endpoints alive, no
    spanner edge missing from the α-UBG). *)
val load_checkpoint : string -> checkpoint
