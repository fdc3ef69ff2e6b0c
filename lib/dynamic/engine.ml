module Point = Geometry.Point
module Grid = Geometry.Grid
module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra
module Model = Ubg.Model
module Churn = Ubg.Churn
module Population = Ubg.Churn.Population
module Params = Topo.Params

let src = Logs.Src.create "dynamic.engine" ~doc:"Incremental spanner engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Observability: one "dynamic"/"epoch" span per batch (args filled from
   the report once it exists), sub-spans for the repair and certify
   steps, and always-on counters mirroring the engine's own totals. *)
let m_epochs = Obs.Metrics.counter "engine.epochs"
let m_incremental = Obs.Metrics.counter "engine.incremental"
let m_rebuilds = Obs.Metrics.counter "engine.rebuilds"
let m_cert_failures = Obs.Metrics.counter "engine.cert_failures"
let g_dirty = Obs.Metrics.gauge "engine.dirty_fraction"

type snapshot = {
  snap_epoch : int;
  snap_points : Point.t array;
  snap_alive : bool array;
  snap_ubg : Csr.t;
  snap_spanner : Csr.t;
  snap_stretch : float;
  snap_dirty : int array;
}

type repair_kind =
  | Incremental
  | Rebuild_threshold
  | Rebuild_cert_failure
  | Rebuild_backend

type report = {
  epoch : int;
  n_events : int;
  n_alive : int;
  n_ubg_edges : int;
  n_spanner_edges : int;
  n_dirty : int;
  dirty_fraction : float;
  kind : repair_kind;
  stretch : float;
  max_degree : int;
  repair_seconds : float;
  certify_seconds : float;
}

type t = {
  params : Params.t;
  backend : Spanner.Backend.t option;
      (* None = historic relaxed-greedy path, bit-identical replays *)
  backend_incremental : bool;  (* true also when backend = None *)
  gray : Ubg.Gray_zone.t;
  rebuild_threshold : float;
  clock : unit -> float;
  pop : Population.t;
  mutable spanner : Wgraph.t;  (* capacity-indexed; dead slots isolated *)
  mutable latest : snapshot;
      (* the certified epoch; its [snap_ubg] is the engine's only copy
         of the α-UBG *)
  mutable last_rebuild : float;
  mutable n_incremental : int;
  mutable n_rebuilds : int;
  mutable n_cert_failures : int;
  mutable epoch_hooks : (snapshot -> unit) list;
      (* newest first; fired in registration order after each
         successful apply_batch *)
}

let epoch t = t.latest.snap_epoch
let n_alive t = Population.n_alive t.pop
let params t = t.params
let backend t = t.backend
let spanner t = t.spanner
let last_rebuild_seconds t = t.last_rebuild
let counters t = (t.n_incremental, t.n_rebuilds, t.n_cert_failures)
let latest t = t.latest
let on_epoch t f = t.epoch_hooks <- f :: t.epoch_hooks

let weight_ratio snap =
  Csr.total_weight snap.snap_spanner /. Graph.Mst.weight_csr snap.snap_ubg

(* ------------------------------------------------------------------ *)
(* Slot-indexed graph maintenance                                      *)
(* ------------------------------------------------------------------ *)

let remove_incident g s =
  List.iter (fun (v, _) -> ignore (Wgraph.remove_edge g s v)) (Wgraph.neighbors g s)

(* [model_of t base] compacts alive slots to 0..k-1 and revalidates
   the α-UBG invariant on [base]; the mapping array sends compact ids
   back to slots. *)
let model_of t base =
  let ids = Array.of_list (Population.alive_ids t.pop) in
  let k = Array.length ids in
  let local_of = Array.make (Population.capacity t.pop) (-1) in
  Array.iteri (fun li s -> local_of.(s) <- li) ids;
  let points = Array.map (fun s -> t.pop.Population.points.(s)) ids in
  let g = Wgraph.create k in
  Csr.iter_edges base (fun u v w ->
      Wgraph.add_edge g local_of.(u) local_of.(v) w);
  (Model.make ~alpha:t.params.Params.alpha points g, ids)

let current_model t = model_of t t.latest.snap_ubg

(* ------------------------------------------------------------------ *)
(* Full rebuild fallback                                               *)
(* ------------------------------------------------------------------ *)

(* One full construction of a compacted model through the configured
   strategy. [backend = None] keeps the historic direct call (no extra
   trace span), so default replays stay bit-identical. *)
let construct ~backend ~params model =
  match backend with
  | None ->
      (Topo.Relaxed_greedy.build ~params model).Topo.Relaxed_greedy.spanner
  | Some b -> (Spanner.Backend.build b ~params model).Spanner.Backend.spanner

let full_rebuild t base =
  let model, ids = model_of t base in
  let t0 = t.clock () in
  let spanner = construct ~backend:t.backend ~params:t.params model in
  t.last_rebuild <- t.clock () -. t0;
  let sp = Wgraph.create (Population.capacity t.pop) in
  Wgraph.iter_edges spanner (fun u v w ->
      Wgraph.add_edge sp ids.(u) ids.(v) w);
  t.spanner <- sp

(* ------------------------------------------------------------------ *)
(* Incremental repair                                                  *)
(* ------------------------------------------------------------------ *)

(* The greedy rule itself, one Dijkstra bounded by t·len per dirty
   edge in ascending (w, u, v) order: the edge joins the spanner when
   the search finds no path within the bound. *)
let greedy_repair t dirty =
  let ws = Dijkstra.domain_workspace () in
  List.iter
    (fun (e : Wgraph.edge) ->
      let budget = t.params.Params.t *. e.w in
      if Dijkstra.distance_upto_ws ws t.spanner e.u e.v ~bound:budget > budget
      then ignore (Wgraph.add_edge_min t.spanner e.u e.v e.w))
    (List.sort Wgraph.compare_edge dirty)

(* ------------------------------------------------------------------ *)
(* Certification and snapshots                                         *)
(* ------------------------------------------------------------------ *)

(* Freeze the live spanner and certify it against [base]: subgraph
   inclusion + edge stretch. A spanner edge missing from the base reads
   as infinite stretch so the caller's fallback logic treats it like
   any other failure. *)
let certify ~base spanner =
  let sp = Csr.of_wgraph spanner in
  let subgraph_ok = ref true in
  Csr.iter_edges sp (fun u v _ ->
      if not (Csr.mem_edge base u v) then subgraph_ok := false);
  let stretch =
    if !subgraph_ok then Topo.Verify.edge_stretch_csr ~base ~spanner:sp
    else infinity
  in
  (sp, stretch)

(* The largest stretch certification accepts; dirty marking uses it
   too, as the witness radius (see the marking step). *)
let certified_stretch params = params.Params.t +. 1e-9

let certifies params stretch = stretch <= certified_stretch params

(* Endpoints of every spanner edge that changed between [prev] and
   [sp], sorted and deduplicated. This is the dirty-region payload the
   oracle layer repairs from: any vertex whose incident spanner edges
   are untouched keeps its shortest-path neighborhood byte-identical,
   so consumers only need to re-examine structures reachable from
   these endpoints. *)
let dirty_of_diff ~prev ~sp =
  let added, removed = Csr.diff ~before:prev ~after:sp in
  let ends = ref [] in
  let mark { Wgraph.u; v; _ } = ends := u :: v :: !ends in
  Array.iter mark added;
  Array.iter mark removed;
  Array.of_list (List.sort_uniq compare !ends)

let snapshot pop ~epoch ~base ~sp ~stretch ~dirty =
  {
    snap_epoch = epoch;
    snap_points = Array.copy pop.Population.points;
    snap_alive = Array.copy pop.Population.alive;
    snap_ubg = base;
    snap_spanner = sp;
    snap_stretch = stretch;
    snap_dirty = dirty;
  }

(* ------------------------------------------------------------------ *)
(* Batch application                                                   *)
(* ------------------------------------------------------------------ *)

(* Put the population and the live spanner back to the latest
   snapshot, so that a batch that raises leaves no trace. *)
let restore_latest t =
  let s = t.latest in
  Population.restore t.pop ~points:s.snap_points ~alive:s.snap_alive;
  t.spanner <- Csr.to_wgraph s.snap_spanner

let step t (events : Churn.event array) =
  let t0 = t.clock () in
  let prev = t.latest in
  (* 1. Events -> population, recording touched positions (old and new)
     and which slots need their incident α-UBG edges re-derived. *)
  let touched = ref [] and refreshed = ref [] and dead = ref [] in
  let note_old i =
    if i >= 0 && i < Population.capacity t.pop then
      touched := t.pop.Population.points.(i) :: !touched
  in
  Array.iter
    (fun ev ->
      (match ev with
      | Churn.Leave i | Churn.Move (i, _) -> note_old i
      | Churn.Join _ -> ());
      let s = Population.apply t.pop ev in
      match ev with
      | Churn.Join p ->
          touched := p :: !touched;
          refreshed := s :: !refreshed
      | Churn.Leave _ -> dead := s :: !dead
      | Churn.Move (_, p) ->
          touched := p :: !touched;
          refreshed := s :: !refreshed)
    events;
  let touched = !touched in
  let cap = Population.capacity t.pop in
  Wgraph.grow t.spanner cap;
  (* 2. Derive the α-UBG from the latest one: drop every edge incident
     to a touched slot, then re-derive adjacency for the slots that are
     alive with a new position (join targets and movers). *)
  let sort_uniq l = List.sort_uniq compare l in
  let cut = sort_uniq (!dead @ !refreshed) in
  List.iter (remove_incident t.spanner) cut;
  let alpha = t.params.Params.alpha in
  let points = t.pop.Population.points in
  (* Unit-cell grid over every stored coordinate, dead slots included
     (they are skipped below); a leave-only batch builds none. *)
  let refreshed = sort_uniq !refreshed in
  let fresh = ref [] in
  if refreshed <> [] then begin
    let grid = Grid.build ~cell:1.0 points in
    List.iter
      (fun s ->
        if Population.is_alive t.pop s then
          Grid.iter_within grid ~radius:1.0 points.(s) (fun j d ->
              if j <> s && d > 0.0 && Population.is_alive t.pop j then begin
                let keep =
                  d <= alpha
                  || Ubg.Gray_zone.decide t.gray ~alpha ~u:s ~v:j
                       ~pu:points.(s) ~pv:points.(j) ~dist:d
                in
                if keep then fresh := { Wgraph.u = s; v = j; w = d } :: !fresh
              end))
      refreshed
  end;
  let base =
    Csr.add_edges
      (Csr.isolate prev.snap_ubg ~n:cap (Array.of_list cut))
      (Array.of_list !fresh)
  in
  (* 3. Dirty marking: edge {u,v} of length len is dirty when an
     endpoint is within certified_stretch·len/2 of a touched position,
     the radius of any certified witness path through it (see the .mli
     headnote / DESIGN.md section 10). *)
  let dmin = Array.make cap infinity in
  Population.iter_alive t.pop (fun i ->
      let p = points.(i) in
      List.iter
        (fun q ->
          let d = Point.distance p q in
          if d < dmin.(i) then dmin.(i) <- d)
        touched);
  let half_stretch = 0.5 *. certified_stretch t.params in
  let dirty = ref [] and n_dirty = ref 0 in
  Csr.iter_edges base (fun u v w ->
      if Float.min dmin.(u) dmin.(v) <= half_stretch *. w then begin
        dirty := { Wgraph.u; v; w } :: !dirty;
        incr n_dirty
      end);
  let n_ubg_edges = Csr.n_edges base in
  let dirty_fraction =
    if n_ubg_edges = 0 then 0.0
    else float_of_int !n_dirty /. float_of_int n_ubg_edges
  in
  Obs.Metrics.set_gauge g_dirty dirty_fraction;
  (* 4. Repair: full rebuild past the threshold, else the greedy rule
     over the dirty edges. *)
  let kind = ref Incremental in
  Obs.Trace.span ~cat:"dynamic"
    ~args:(fun () ->
      [ ("dirty", float_of_int !n_dirty); ("dirty_fraction", dirty_fraction) ])
    "repair"
    (fun () ->
      if not t.backend_incremental then begin
        (* Non-incremental backend: every epoch is a rebuild, then
           certified like any other repair. *)
        kind := Rebuild_backend;
        t.n_rebuilds <- t.n_rebuilds + 1;
        Obs.Metrics.incr m_rebuilds;
        full_rebuild t base
      end
      else if dirty_fraction > t.rebuild_threshold then begin
        kind := Rebuild_threshold;
        t.n_rebuilds <- t.n_rebuilds + 1;
        Obs.Metrics.incr m_rebuilds;
        full_rebuild t base
      end
      else begin
        t.n_incremental <- t.n_incremental + 1;
        Obs.Metrics.incr m_incremental;
        greedy_repair t !dirty
      end);
  let repair_seconds = t.clock () -. t0 in
  (* 5. Certify; an incremental result that fails falls back to a full
     rebuild, and a rebuild that fails raises (the caller rolls the
     engine back). *)
  let c0 = t.clock () in
  let sp, stretch =
    Obs.Trace.span ~cat:"dynamic" "certify" (fun () ->
        let sp, stretch = certify ~base t.spanner in
        if certifies t.params stretch then (sp, stretch)
        else begin
          Log.warn (fun m ->
              m "epoch %d: stretch %g fails t = %g after %s repair; rebuilding"
                (prev.snap_epoch + 1) stretch t.params.Params.t
                (match !kind with Incremental -> "incremental" | _ -> "rebuild"));
          t.n_cert_failures <- t.n_cert_failures + 1;
          Obs.Metrics.incr m_cert_failures;
          if !kind = Incremental then begin
            kind := Rebuild_cert_failure;
            full_rebuild t base;
            certify ~base t.spanner
          end
          else (sp, stretch)
        end)
  in
  if not (certifies t.params stretch) then
    failwith
      (Printf.sprintf
         "Engine.apply_batch: stretch %g exceeds t = %g even after full \
          rebuild; rolled back to epoch %d"
         stretch t.params.Params.t prev.snap_epoch);
  let certify_seconds = t.clock () -. c0 in
  t.latest <-
    snapshot t.pop ~epoch:(prev.snap_epoch + 1) ~base ~sp ~stretch
      ~dirty:(dirty_of_diff ~prev:prev.snap_spanner ~sp);
  Obs.Metrics.incr m_epochs;
  {
    epoch = t.latest.snap_epoch;
    n_events = Array.length events;
    n_alive = Population.n_alive t.pop;
    n_ubg_edges;
    n_spanner_edges = Csr.n_edges sp;
    n_dirty = !n_dirty;
    dirty_fraction;
    kind = !kind;
    stretch;
    max_degree = Csr.max_degree sp;
    repair_seconds;
    certify_seconds;
  }

let apply_batch_impl t events =
  let r =
    try step t events
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      restore_latest t;
      Printexc.raise_with_backtrace e bt
  in
  List.iter (fun f -> f t.latest) (List.rev t.epoch_hooks);
  r

let kind_code = function
  | Incremental -> 0.0
  | Rebuild_threshold -> 1.0
  | Rebuild_cert_failure -> 2.0
  | Rebuild_backend -> 3.0

let apply_batch t events =
  if not (Obs.Trace.enabled ()) then apply_batch_impl t events
  else begin
    let info = ref [] in
    Obs.Trace.span ~cat:"dynamic" ~args:(fun () -> !info) "epoch" (fun () ->
        let r = apply_batch_impl t events in
        info :=
          [
            ("events", float_of_int r.n_events);
            ("dirty_fraction", r.dirty_fraction);
            ("kind", kind_code r.kind);
            ("repair_s", r.repair_seconds);
            ("certify_s", r.certify_seconds);
          ];
        r)
  end

let replay t (trace : Churn.trace) ~f =
  Array.iter (fun batch -> f (apply_batch t batch)) trace.Churn.batches

(* ------------------------------------------------------------------ *)
(* Construction and restore                                            *)
(* ------------------------------------------------------------------ *)

(* The record [create] and [restore] both start from, once [spanner]
   certifies against [base]; [fail] words the failure from the stretch
   and [t]. The gray-zone policy and the rebuild threshold are
   configuration, not state: a restored engine runs with the
   defaults. *)
let make ?backend ?(gray = Ubg.Gray_zone.Keep_all) ?(rebuild_threshold = 0.3)
    ~clock ~params ~pop ~spanner ~last_rebuild ~epoch ~base ~fail () =
  let sp, stretch = certify ~base spanner in
  if not (certifies params stretch) then
    failwith (fail stretch params.Params.t);
  let backend_incremental =
    match backend with
    | None -> true
    | Some b -> (Spanner.Backend.capabilities b).Spanner.Backend.incremental
  in
  {
    params;
    backend;
    backend_incremental;
    gray;
    rebuild_threshold;
    clock;
    pop;
    spanner;
    latest = snapshot pop ~epoch ~base ~sp ~stretch ~dirty:[||];
    last_rebuild;
    n_incremental = 0;
    n_rebuilds = 0;
    n_cert_failures = 0;
    epoch_hooks = [];
  }

let create ?backend ?gray ?rebuild_threshold ?(clock = Obs.Control.now)
    ~params model =
  (match rebuild_threshold with
  | Some r when r <= 0.0 || r > 1.0 ->
      invalid_arg "Engine.create: rebuild_threshold must be in (0, 1]"
  | _ -> ());
  let t0 = clock () in
  let spanner = construct ~backend ~params model in
  let last_rebuild = clock () -. t0 in
  make ?backend ?gray ?rebuild_threshold ~clock ~params
    ~pop:(Population.of_points model.Model.points)
    ~spanner ~last_rebuild ~epoch:0 ~base:(Csr.of_wgraph model.Model.graph)
    ~fail:
      (Printf.sprintf "Engine.create: initial build has stretch %g > t = %g")
    ()

let restore ?backend ~params snap =
  let cap = Array.length snap.snap_points in
  if
    Array.length snap.snap_alive <> cap
    || Csr.n_vertices snap.snap_ubg <> cap
    || Csr.n_vertices snap.snap_spanner <> cap
  then failwith "Engine.restore: snapshot arrays disagree on capacity";
  if not (Array.exists Fun.id snap.snap_alive) then
    failwith "Engine.restore: snapshot has no alive slot";
  let pop = Population.of_points snap.snap_points in
  Population.restore pop ~points:snap.snap_points ~alive:snap.snap_alive;
  (* Re-certify rather than trust the recorded stretch: a corrupt or
     hand-edited checkpoint must not become a serving engine. *)
  let t =
    make ?backend ~clock:Obs.Control.now ~params ~pop
      ~spanner:(Csr.to_wgraph snap.snap_spanner) ~last_rebuild:0.0
      ~epoch:snap.snap_epoch ~base:snap.snap_ubg
      ~fail:
        (Printf.sprintf
           "Engine.restore: checkpoint at epoch %d has stretch %g > t = %g"
           snap.snap_epoch)
      ()
  in
  if abs_float (t.latest.snap_stretch -. snap.snap_stretch) > 1e-6 then
    Log.warn (fun m ->
        m "restore: recomputed stretch %g differs from recorded %g"
          t.latest.snap_stretch snap.snap_stretch);
  t
