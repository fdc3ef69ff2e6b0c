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
    edge joins two distinct in-range ids at a positive distance, and no
    edge is listed twice; an instance passes {!Model.make}'s check. Each
    malformed input raises [Failure "<file>: line <k>: <what>"],
    whichever entry reads it. A count is never trusted for an
    allocation: one larger than the file fails at the file's end.

    {b The scanner.} Each line is trimmed and read in place, left to
    right, with no token list: tokens are separated by blanks, and a
    line must end after its last field. A count, id or slot is
    [[0-9]+], at most [max_int]. A coordinate, alpha or stretch is a
    finite decimal: its token holds only digits, ['.'], ['e'], ['E'],
    ['+'] and ['-'], and [float_of_string] must read it to a finite
    value. So [0x0], [0b1], [0u3], [1_000], [+5], [nan] and [inf] are
    refused wherever a number stands, as is every other form the
    writers never emit.

    {b The resume read.} A daemon that resumes from a checkpoint takes
    its state from the checkpoint, read in one pass into frozen graphs
    ({!load_checkpoint_csr}), and reads its source's instance only to
    check it: {!check_instance} and {!check_trace_prefix} read the body
    into a {!Graph.Csr}, run {!Model.validate}, the check behind
    {!Model.make}, on it and keep only its {!shape}. No hashtable graph
    and no {!Model.t} is built on that path. *)

(** [save_instance path model] writes [model] to [path]. *)
val save_instance : string -> Model.t -> unit

(** [load_instance path] reads an instance; raises [Failure] naming
    the line on malformed input. *)
val load_instance : string -> Model.t

(** What a resume keeps of an instance it has checked. *)
type shape = { n : int; dim : int; alpha : float }

val shape_of_model : Model.t -> shape

(** [check_instance path] reads an instance as {!load_instance} does,
    with every check, but into a {!Graph.Csr} that it checks with
    {!Model.validate} and then drops: no {!Model.t} and no hashtable
    graph is built. A resuming daemon serves the checkpoint's state and
    needs only the instance's shape. *)
val check_instance : string -> shape

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

    The trace grammar, for readers that take their input elsewhere (the
    daemon's tail, its socket [EV] lines). *)

(** Numbered lines from a source of bytes. *)
type reader

(** [reader ~name more] reads the bytes [more ()] returns, in pieces of
    any size, [None] at the end of input (where a last line without its
    ['\n'] still counts). Blank and [#] comment lines are skipped, and
    each line is scanned in place. What [more] raises passes through
    every reader untouched, and a line counts only once complete and
    taken, so a source that raises when no more bytes are there yet can
    be read again later. [name] (a file name) prefixes every error. *)
val reader : name:string -> (unit -> string option) -> reader

(** [fail r fmt ...] raises [Failure "<name>: line <k>: <message>"] at
    [r]'s last line taken. *)
val fail : reader -> ('a, unit, string, 'b) format4 -> 'a

(** [read_trace_prefix r] reads a trace's header, instance body and
    batch count: [(initial, batches)]. *)
val read_trace_prefix : reader -> Model.t * int

(** [check_trace_prefix r] reads the same prefix, its instance body
    checked as {!check_instance} checks it: [(shape, batches)]. *)
val check_trace_prefix : reader -> shape * int

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
    The trailing [end] sentinel makes truncation detectable.

    One parser reads the format, straight into {!Graph.Csr}: each edge
    list is collected in file order, laid out by a counting sort on its
    endpoints and adopted with {!Graph.Csr.of_arrays}, so no hashtable
    graph is built. Besides the checks every reader makes, the α-UBG's
    edges must join alive slots and every spanner edge must be an
    α-UBG edge ({!Graph.Csr.mem_edge}). *)

(** The record, over either graph type: ['g] is {!Graph.Csr.t} as
    {!load_checkpoint_csr} reads it and {!Graph.Wgraph.t} in
    {!checkpoint}. *)
type 'g checkpoint_of = {
  ck_epoch : int;  (** engine epoch the state was certified at *)
  ck_events : int;  (** ingest cursor: events consumed so far *)
  ck_alpha : float;
  ck_points : Geometry.Point.t array;  (** capacity-indexed *)
  ck_alive : bool array;
  ck_ubg : 'g;  (** capacity-indexed; dead slots isolated *)
  ck_spanner : 'g;
  ck_stretch : float;  (** certified stretch recorded at save time *)
}

(** What {!save_checkpoint} writes and {!load_checkpoint} returns. It
    keeps its [Wgraph] fields because callers outside this library
    build it from hashtable graphs. *)
type checkpoint = Graph.Wgraph.t checkpoint_of

(** [save_checkpoint path ck] writes [ck] to [path] (not atomic —
    callers that overwrite a live checkpoint should write to a
    temporary and rename, as [Daemon.Checkpoint] does). *)
val save_checkpoint : string -> checkpoint -> unit

(** [load_checkpoint_csr path] reads a checkpoint into frozen graphs:
    each equals {!Graph.Csr.of_wgraph} of the graph {!load_checkpoint}
    returns, array for array. Raises [Failure] naming the line on
    malformed, truncated or wrong-version input. *)
val load_checkpoint_csr : string -> Graph.Csr.t checkpoint_of

(** [load_checkpoint path] is {!load_checkpoint_csr} with both graphs
    thawed ({!Graph.Csr.to_wgraph}). *)
val load_checkpoint : string -> checkpoint
