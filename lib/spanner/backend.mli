(** The pluggable SPANNER backend interface and registry.

    The paper's relaxed greedy algorithm is one point in a crowded
    design space — PAPERS.md lists the direct competitors (localized
    quasi-UDG spanners, LMST, XTC, cone graphs, WSPD …). This module
    makes the construction plane first-class: every algorithm that
    turns an α-UBG into a topology is wrapped as a [(module S)] value,
    registered by name, and driven through one [build] entry point that
    yields one [result] shape. The comparison harness ({!Compare}),
    the dynamic engine ([Dynamic.Engine]) and the CLI all consume
    backends through this interface only.

    Registration happens as a module-initialization side effect in
    {!Backends}; call [Backends.ensure ()] before querying the
    registry from an executable, or the linker may never have run the
    registering module. *)

(** What a backend can promise. The flags drive harness behavior: the
    engine keeps its incremental repair path only for [incremental]
    backends; the conformance suite checks subgraph-ness only when
    [subgraph] holds; [metric_aware] backends accept the energy metric
    of Section 1.6.2, the others silently build Euclidean. *)
type capabilities = {
  incremental : bool;
      (** has a dirty-region repair path in [Dynamic.Engine] *)
  localized : bool;
      (** decisions use constant-hop information only (Section 3
          sense) *)
  metric_aware : bool;  (** honors [?metric] beyond Euclidean *)
  subgraph : bool;  (** output edges are a subset of the input α-UBG *)
}

(** The unified build result. Fields that a backend cannot fill are
    zero/empty/[None] — e.g. only the relaxed greedy has [phases], only
    simulated-protocol backends have [rounds]/[messages]. *)
type result = {
  backend : string;  (** registry name of the producer *)
  spanner : Graph.Wgraph.t;
  advertised_stretch : float option;
      (** the t the backend guarantees, [None] for heuristics (LMST,
          XTC, Yao/Theta) that bound degree or planarity instead *)
  phases : Topo.Relaxed_greedy.phase_stats list;
      (** per-phase counters, relaxed greedy only *)
  rounds : int;  (** simulator rounds, 0 for centralized builds *)
  messages : int;  (** simulator messages, 0 for centralized builds *)
  build_seconds : float;  (** wall clock, filled by {!build} *)
}

module type S = sig
  val name : string
  (** registry key: short, lowercase, [[a-z0-9-]] *)

  val description : string
  (** one line: what it builds and where it comes from *)

  val capabilities : capabilities

  val build :
    ?metric:Geometry.Metric.t -> params:Topo.Params.t -> Ubg.Model.t -> result
  (** Raw build; [build_seconds] may be 0, the registry wrapper fills
      it. *)
end

type t = (module S)

val name : t -> string
val description : t -> string
val capabilities : t -> capabilities

(** {1 Registry} *)

(** [register b] adds [b] under its name, replacing any previous entry
    with the same name (idempotent re-registration is fine). *)
val register : t -> unit

val find : string -> t option

(** [all ()] lists registered backends sorted by name — a deterministic
    iteration order for harnesses and CI. *)
val all : unit -> t list

val names : unit -> string list

(** The registry key of the paper's own algorithm, ["relaxed"]. *)
val default_name : string

(** [default ()] is the backend selected by the [TOPO_BACKEND]
    environment variable, falling back to {!default_name}. Raises
    [Invalid_argument] naming the known backends when the variable
    holds an unknown name. *)
val default : unit -> t

(** {1 Driving a backend} *)

(** [build b ?metric ~params model] runs the backend inside a
    top-level [Obs.Trace] span (cat ["build"], name ["build"], carrying
    a [backend=<name>] argument so traces from different backends stay
    distinguishable in one file) and fills [build_seconds] with the
    measured wall clock. *)
val build :
  t ->
  ?metric:Geometry.Metric.t ->
  params:Topo.Params.t ->
  Ubg.Model.t ->
  result
