(** Head-to-head backend comparison (the harness behind
    [topoctl compare] and the [E-compare] bench).

    One instance goes through every registered backend; each build is
    summarized against the same base graph (stretch, degree,
    weight-vs-MST, power cost — {!Analysis.Metrics.summarize}) and
    checked against the backend's advertised stretch when it has one.
    Results render as an {!Analysis.Report} table, as an {!Obs.Json}
    document, and as metric gauges so [Obs.Export.kv] carries them. *)

type row = {
  backend : Backend.t;
  result : Backend.result;
  summary : Analysis.Metrics.summary;
  t_ok : bool option;
      (** measured stretch within advertised, [None] when the backend
          advertises no stretch bound *)
}

(** [run ?metric ?backends ~params model] builds the instance
    with every backend (default: the whole registry, name order) and
    summarizes each against the input graph reweighted through
    [metric]. *)
val run :
  ?metric:Geometry.Metric.t ->
  ?backends:Backend.t list ->
  params:Topo.Params.t ->
  Ubg.Model.t ->
  row list

(** [table ~title rows] lays the comparison out as one report table. *)
val table : title:string -> row list -> Analysis.Report.t

(** [to_json ~params ~model rows] is a standalone JSON document:
    instance header plus one object per backend. Non-finite floats
    (disconnected stretch) render as [null]. *)
val to_json :
  params:Topo.Params.t -> model:Ubg.Model.t -> row list -> Obs.Json.t

(** [set_gauges rows] publishes [compare.<backend>.<quantity>] gauges
    into the {!Obs.Metrics} registry. *)
val set_gauges : row list -> unit
