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
  mutable ubg : Wgraph.t;  (* capacity-indexed; dead slots isolated *)
  mutable spanner : Wgraph.t;
  mutable epoch : int;
  mutable snaps : snapshot list;  (* newest first, <= [history] long *)
  mutable last_rebuild : float;
  mutable n_incremental : int;
  mutable n_rebuilds : int;
  mutable n_cert_failures : int;
  mutable epoch_hooks : (snapshot -> unit) list;
      (* newest first; fired in registration order after each
         successful apply_batch snapshot push *)
}

let epoch t = t.epoch
let n_alive t = Population.n_alive t.pop
let params t = t.params
let backend t = t.backend
let ubg t = t.ubg
let spanner t = t.spanner
let last_rebuild_seconds t = t.last_rebuild
let counters t = (t.n_incremental, t.n_rebuilds, t.n_cert_failures)
let snapshots t = t.snaps

let latest t =
  match t.snaps with
  | s :: _ -> s
  | [] -> assert false (* create always pushes epoch 0 *)

let on_epoch t f = t.epoch_hooks <- f :: t.epoch_hooks

let diff ~before ~after =
  Csr.diff ~before:before.snap_spanner ~after:after.snap_spanner

let weight_ratio snap =
  Csr.total_weight snap.snap_spanner /. Graph.Mst.weight_csr snap.snap_ubg

(* ------------------------------------------------------------------ *)
(* Slot-indexed graph maintenance                                      *)
(* ------------------------------------------------------------------ *)

(* Wgraph vertex sets are fixed at creation, so capacity growth (a join
   with no free slot) reallocates and re-inserts. Joins grow capacity
   by one, so this stays O(m) per fresh slot. *)
let grown g cap =
  if Wgraph.n_vertices g >= cap then g
  else begin
    let g' = Wgraph.create cap in
    Wgraph.iter_edges g (fun u v w -> Wgraph.add_edge g' u v w);
    g'
  end

let remove_incident g s =
  List.iter (fun (v, _) -> ignore (Wgraph.remove_edge g s v)) (Wgraph.neighbors g s)

(* [current_model t] compacts alive slots to 0..k-1 and revalidates the
   α-UBG invariant; the mapping array sends compact ids back to slots. *)
let current_model t =
  let ids = Array.of_list (Population.alive_ids t.pop) in
  let k = Array.length ids in
  let local_of = Array.make (Population.capacity t.pop) (-1) in
  Array.iteri (fun li s -> local_of.(s) <- li) ids;
  let points = Array.map (fun s -> t.pop.Population.points.(s)) ids in
  let g = Wgraph.create k in
  Wgraph.iter_edges t.ubg (fun u v w ->
      Wgraph.add_edge g local_of.(u) local_of.(v) w);
  (Model.make ~alpha:t.params.Params.alpha points g, ids)

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

let full_rebuild t =
  let model, ids = current_model t in
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

(* Freeze both graphs and certify: subgraph inclusion + edge stretch.
   A spanner edge missing from the base reads as infinite stretch so
   the caller's fallback logic treats it like any other failure. *)
let certify t =
  let base = Csr.of_wgraph t.ubg and sp = Csr.of_wgraph t.spanner in
  let subgraph_ok = ref true in
  Csr.iter_edges sp (fun u v _ ->
      if not (Csr.mem_edge base u v) then subgraph_ok := false);
  let stretch =
    if !subgraph_ok then Topo.Verify.edge_stretch_csr ~base ~spanner:sp
    else infinity
  in
  (base, sp, stretch)

(* The largest stretch certification accepts; dirty marking uses it
   too, as the witness radius (see the marking step). *)
let certified_stretch t = t.params.Params.t +. 1e-9

let certifies t stretch = stretch <= certified_stretch t

(* Snapshots kept for [diff] and [rollback]. *)
let history = 4

let restore_from t snap =
  Population.restore t.pop ~points:snap.snap_points ~alive:snap.snap_alive;
  t.ubg <- Csr.to_wgraph snap.snap_ubg;
  t.spanner <- Csr.to_wgraph snap.snap_spanner;
  t.epoch <- snap.snap_epoch

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* Endpoints of every spanner edge that changed between [prev] and
   [sp], sorted and deduplicated. This is the dirty-region payload the
   oracle layer repairs from: any vertex whose incident spanner edges
   are untouched keeps its shortest-path neighborhood byte-identical,
   so consumers only need to re-examine structures reachable from
   these endpoints. *)
let dirty_of_diff ~prev ~sp =
  let added, removed = Csr.diff ~before:prev ~after:sp in
  if Array.length added = 0 && Array.length removed = 0 then [||]
  else begin
    let tbl = Hashtbl.create 64 in
    let mark { Wgraph.u; v; _ } =
      Hashtbl.replace tbl u ();
      Hashtbl.replace tbl v ()
    in
    Array.iter mark added;
    Array.iter mark removed;
    let out = Array.make (Hashtbl.length tbl) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun v () ->
        out.(!i) <- v;
        incr i)
      tbl;
    Array.sort compare out;
    out
  end

let push_snapshot t ~base ~sp ~stretch =
  let snap_dirty =
    match t.snaps with
    | [] -> [||]
    | prev :: _ -> dirty_of_diff ~prev:prev.snap_spanner ~sp
  in
  let snap =
    {
      snap_epoch = t.epoch;
      snap_points = Array.copy t.pop.Population.points;
      snap_alive = Array.copy t.pop.Population.alive;
      snap_ubg = base;
      snap_spanner = sp;
      snap_stretch = stretch;
      snap_dirty;
    }
  in
  t.snaps <- snap :: take (history - 1) t.snaps

let rollback t =
  match t.snaps with
  | _ :: (prev :: _ as rest) ->
      restore_from t prev;
      t.snaps <- rest
  | _ -> failwith "Engine.rollback: no older snapshot"

(* ------------------------------------------------------------------ *)
(* Batch application                                                   *)
(* ------------------------------------------------------------------ *)

let apply_batch_impl t (events : Churn.event array) =
  let t0 = t.clock () in
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
  t.ubg <- grown t.ubg cap;
  t.spanner <- grown t.spanner cap;
  (* 2. Update the α-UBG itself: drop every edge incident to a touched
     slot, then re-derive adjacency for the slots that are alive with a
     new position (join targets and movers). *)
  let sort_uniq l = List.sort_uniq compare l in
  List.iter
    (fun s ->
      remove_incident t.ubg s;
      remove_incident t.spanner s)
    (sort_uniq (!dead @ !refreshed));
  let alpha = t.params.Params.alpha in
  let points = t.pop.Population.points in
  (* Unit-cell grid over every stored coordinate, dead slots included
     (they are skipped below); a leave-only batch builds none. *)
  let refreshed = sort_uniq !refreshed in
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
                if keep then Wgraph.add_edge t.ubg s j d
              end))
      refreshed
  end;
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
  let half_stretch = 0.5 *. certified_stretch t in
  let dirty = ref [] and n_dirty = ref 0 in
  Wgraph.iter_edges t.ubg (fun u v w ->
      if Float.min dmin.(u) dmin.(v) <= half_stretch *. w then begin
        dirty := { Wgraph.u; v; w } :: !dirty;
        incr n_dirty
      end);
  let n_ubg_edges = Wgraph.n_edges t.ubg in
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
        full_rebuild t
      end
      else if dirty_fraction > t.rebuild_threshold then begin
        kind := Rebuild_threshold;
        t.n_rebuilds <- t.n_rebuilds + 1;
        Obs.Metrics.incr m_rebuilds;
        full_rebuild t
      end
      else begin
        t.n_incremental <- t.n_incremental + 1;
        Obs.Metrics.incr m_incremental;
        greedy_repair t !dirty
      end);
  let repair_seconds = t.clock () -. t0 in
  (* 5. Certify; an incremental result that fails falls back to a full
     rebuild, and a rebuild that fails rolls the engine back. *)
  let c0 = t.clock () in
  let base, sp, stretch =
    Obs.Trace.span ~cat:"dynamic" "certify" (fun () ->
        let base, sp, stretch = certify t in
        if certifies t stretch then (base, sp, stretch)
        else begin
          Log.warn (fun m ->
              m "epoch %d: stretch %g fails t = %g after %s repair; rebuilding"
                (t.epoch + 1) stretch t.params.Params.t
                (match !kind with Incremental -> "incremental" | _ -> "rebuild"));
          t.n_cert_failures <- t.n_cert_failures + 1;
          Obs.Metrics.incr m_cert_failures;
          if !kind = Incremental then begin
            kind := Rebuild_cert_failure;
            full_rebuild t;
            certify t
          end
          else (base, sp, stretch)
        end)
  in
  if not (certifies t stretch) then begin
    restore_from t (latest t);
    failwith
      (Printf.sprintf
         "Engine.apply_batch: stretch %g exceeds t = %g even after full \
          rebuild; rolled back to epoch %d"
         stretch t.params.Params.t t.epoch)
  end;
  let certify_seconds = t.clock () -. c0 in
  t.epoch <- t.epoch + 1;
  Obs.Metrics.incr m_epochs;
  push_snapshot t ~base ~sp ~stretch;
  (let snap = latest t in
   List.iter (fun f -> f snap) (List.rev t.epoch_hooks));
  {
    epoch = t.epoch;
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
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The record [create] and [restore] both start from, with the one
   validation of their configuration. The gray-zone policy and the
   rebuild threshold are configuration, not state: a restored engine
   runs with the defaults, so only [create] can pass a bad threshold. *)
let make ?backend ?(gray = Ubg.Gray_zone.Keep_all) ?(rebuild_threshold = 0.3)
    ~clock ~params ~pop ~ubg ~spanner ~epoch () =
  if rebuild_threshold <= 0.0 || rebuild_threshold > 1.0 then
    invalid_arg "Engine.create: rebuild_threshold must be in (0, 1]";
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
    ubg;
    spanner;
    epoch;
    snaps = [];
    last_rebuild = 0.0;
    n_incremental = 0;
    n_rebuilds = 0;
    n_cert_failures = 0;
    epoch_hooks = [];
  }

let create ?backend ?gray ?rebuild_threshold ?(clock = Sys.time) ~params model
    =
  let t =
    make ?backend ?gray ?rebuild_threshold ~clock ~params
      ~pop:(Population.of_points model.Model.points)
      ~ubg:(Wgraph.copy model.Model.graph) ~spanner:(Wgraph.create 0) ~epoch:0
      ()
  in
  let t0 = clock () in
  t.spanner <- construct ~backend ~params model;
  t.last_rebuild <- clock () -. t0;
  let base, sp, stretch = certify t in
  if not (certifies t stretch) then
    failwith
      (Printf.sprintf "Engine.create: initial build has stretch %g > t = %g"
         stretch t.params.Params.t);
  push_snapshot t ~base ~sp ~stretch;
  t

(* ------------------------------------------------------------------ *)
(* State export / restore                                              *)
(* ------------------------------------------------------------------ *)

let export_state = latest

let restore ?backend ?(clock = Sys.time) ~params snap =
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
  let t =
    make ?backend ~clock ~params ~pop
      ~ubg:(Csr.to_wgraph snap.snap_ubg)
      ~spanner:(Csr.to_wgraph snap.snap_spanner)
      ~epoch:snap.snap_epoch ()
  in
  (* Re-certify rather than trust the recorded stretch: a corrupt or
     hand-edited checkpoint must not become a serving engine. *)
  let base, sp, stretch = certify t in
  if not (certifies t stretch) then
    failwith
      (Printf.sprintf
         "Engine.restore: checkpoint at epoch %d has stretch %g > t = %g"
         snap.snap_epoch stretch t.params.Params.t);
  if abs_float (stretch -. snap.snap_stretch) > 1e-6 then
    Log.warn (fun m ->
        m "restore: recomputed stretch %g differs from recorded %g" stretch
          snap.snap_stretch);
  push_snapshot t ~base ~sp ~stretch;
  t
