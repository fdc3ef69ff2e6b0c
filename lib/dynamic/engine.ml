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
let g_certify_sources = Obs.Metrics.gauge "engine.certify_sources"

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
  mutable stretches : float array;
      (* [Topo.Verify.source_stretch] of every slot at [latest],
         replaced together with it *)
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
let source_stretches t = Array.copy t.stretches
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

(* The largest stretch certification accepts; dirty marking uses it
   too, as the witness radius (see the marking step). *)
let certified_stretch params = params.Params.t +. 1e-9

let certifies params stretch = stretch <= certified_stretch params

(* What a certification leaves: the frozen live spanner, the stretch
   of every slot as a source ([Topo.Verify.source_stretch]) and their
   maximum; [infinity] and no per-slot values when the spanner is not
   a subgraph of the base, which the caller's fallback logic treats
   like any other failure. *)
type certificate = { sp : Csr.t; stretches : float array; stretch : float }

let max_stretch stretches = Array.fold_left Float.max 1.0 stretches

let failed sp = { sp; stretches = [||]; stretch = infinity }

(* The full certifier on [sp], the frozen live spanner: every spanner
   edge checked against [base], a search from every source. *)
let certify ~base sp =
  let subgraph_ok = ref true in
  Csr.iter_edges sp (fun u v _ ->
      if not (Csr.mem_edge base u v) then subgraph_ok := false);
  if not !subgraph_ok then failed sp
  else
    let stretches = Topo.Verify.source_stretches ~base ~spanner:sp in
    { sp; stretches; stretch = max_stretch stretches }

(* Sorted, deduplicated endpoints of the edges of a {!Csr.diff}. Of the
   spanner's diff they are both the incremental certifier's search
   sources and the snapshot's [snap_dirty], the dirty region the oracle
   layer repairs from: a vertex whose incident spanner edges are
   untouched keeps its shortest-path neighbourhood byte-identical. *)
let endpoints (added, removed) =
  let ends = ref [] in
  let mark { Wgraph.u; v; _ } = ends := u :: v :: !ends in
  Array.iter mark added;
  Array.iter mark removed;
  Array.of_list (List.sort_uniq compare !ends)

(* Rounding slack on the reach radii. The search measures a path from
   its changed end back to the source, and a float path length depends
   on the direction of travel: each direction is within about k·2⁻⁵³
   of the exact length for k arcs, so a factor 1 + 2⁻²⁰ covers every
   path of fewer than 2³⁰ arcs, and the roundings of the radius and of
   the certified ratio besides. *)
let reach_slack = 1.0 +. 0x1p-20

(* The sources, ascending, whose value can differ from the latest
   epoch's: those with a changed forward base edge ([Csr.diff] lists
   each edge as u < v, the forward edge of u), and those within their
   radius, [certified_stretch] times their longest forward base edge,
   of a [changed] endpoint in [sp] (one bounded multi-source search).
   Every other source keeps its value bit for bit: a path no longer
   than the radius that crosses a changed arc reaches its first changed
   endpoint along arcs present in both spanners, so the search would
   have found the source; the paths within the radius are thus the same
   in both spanners, and the latest epoch certified that they reach
   every forward neighbour (DESIGN.md §10). *)
let reached_sources ~params ~base ~sp ~changed ~base_diff =
  let cap = Csr.n_vertices base in
  let redo = Array.make cap false in
  let mark_source (e : Wgraph.edge) = redo.(e.u) <- true in
  Array.iter mark_source (fst base_diff);
  Array.iter mark_source (snd base_diff);
  let c = certified_stretch params in
  let radius u =
    let r = ref 0.0 in
    for k = base.Csr.off.(u) to base.Csr.off.(u + 1) - 1 do
      if base.Csr.dst.(k) > u && base.Csr.wgt.(k) > !r then r := base.Csr.wgt.(k)
    done;
    c *. !r *. reach_slack
  in
  let len_max = ref 0.0 in
  for k = 0 to Array.length base.Csr.wgt - 1 do
    if base.Csr.wgt.(k) > !len_max then len_max := base.Csr.wgt.(k)
  done;
  let out_v = Array.make cap 0 and out_d = Array.make cap 0.0 in
  let out_p = Array.make cap 0 in
  let k =
    Dijkstra.within_multi_csr_into (Dijkstra.domain_workspace ()) sp
      ~srcs:changed ~bound:(c *. !len_max *. reach_slack) ~out_v ~out_d ~out_p
  in
  for i = 0 to k - 1 do
    let u = out_v.(i) in
    if (not redo.(u)) && out_d.(i) <= radius u then redo.(u) <- true
  done;
  let sources = ref [] in
  for u = cap - 1 downto 0 do
    if redo.(u) then sources := u :: !sources
  done;
  Array.of_list !sources

(* The incremental certifier: [prev] certified with per-slot values
   [stretches], [sp] is the frozen live spanner, [diff] its
   [Csr.diff] against [prev.snap_spanner] and [changed] the diff's
   endpoints. Neither comes from the repair's records, so a spanner
   edge lost behind the engine's back is seen like any other. Subgraph
   inclusion is checked on the diffs: [prev.snap_spanner] lay in
   [prev.snap_ubg], so [sp] lies in [base] when every added spanner
   edge is a base edge and no removed base edge is still a spanner
   edge. Returns the certificate and the number of sources searched
   from. *)
let recertify ~params ~prev ~stretches ~base ~sp ~diff ~changed =
  let base_diff = Csr.diff ~before:prev.snap_ubg ~after:base in
  let in_base (e : Wgraph.edge) = Csr.mem_edge base e.u e.v in
  let still_spanner (e : Wgraph.edge) = Csr.mem_edge sp e.u e.v in
  if
    not
      (Array.for_all in_base (fst diff)
      && Array.for_all
           (fun e -> in_base e || not (still_spanner e))
           (snd base_diff))
  then (failed sp, 0)
  else begin
    let sources = reached_sources ~params ~base ~sp ~changed ~base_diff in
    let fresh =
      Parallel.Pool.map (Topo.Verify.source_stretch ~base ~spanner:sp) sources
    in
    let next = Array.make (Csr.n_vertices base) 1.0 in
    Array.blit stretches 0 next 0 (Array.length stretches);
    Array.iteri (fun i u -> next.(u) <- fresh.(i)) sources;
    ({ sp; stretches = next; stretch = max_stretch next }, Array.length sources)
  end

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
    Csr.add_edges ~n:cap ~cut:(Array.of_list cut) prev.snap_ubg
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
  (* 5. Certify: freeze the live spanner and diff it against the
     latest one, then re-certify the sources a change can reach (an
     incremental repair) or every source (a rebuild). An incremental
     result that fails falls back to a full rebuild, and a rebuild that
     fails raises (the caller rolls the engine back). *)
  let c0 = t.clock () in
  let check ~incremental =
    let sp = Csr.of_wgraph t.spanner in
    let diff = Csr.diff ~before:prev.snap_spanner ~after:sp in
    let changed = endpoints diff in
    let cert, searched =
      if incremental then
        recertify ~params:t.params ~prev ~stretches:t.stretches ~base ~sp ~diff
          ~changed
      else (certify ~base sp, Population.n_alive t.pop)
    in
    (cert, changed, searched)
  in
  let cert, dirty, searched =
    Obs.Trace.span ~cat:"dynamic" "certify" (fun () ->
        let ((cert, _, _) as first) = check ~incremental:(!kind = Incremental) in
        if certifies t.params cert.stretch then first
        else begin
          Log.warn (fun m ->
              m "epoch %d: stretch %g fails t = %g after %s repair; rebuilding"
                (prev.snap_epoch + 1) cert.stretch t.params.Params.t
                (match !kind with Incremental -> "incremental" | _ -> "rebuild"));
          t.n_cert_failures <- t.n_cert_failures + 1;
          Obs.Metrics.incr m_cert_failures;
          if !kind = Incremental then begin
            kind := Rebuild_cert_failure;
            full_rebuild t base;
            check ~incremental:false
          end
          else first
        end)
  in
  let stretch = cert.stretch and sp = cert.sp in
  if not (certifies t.params stretch) then
    failwith
      (Printf.sprintf
         "Engine.apply_batch: stretch %g exceeds t = %g even after full \
          rebuild; rolled back to epoch %d"
         stretch t.params.Params.t prev.snap_epoch);
  let certify_seconds = t.clock () -. c0 in
  Obs.Metrics.set_gauge g_certify_sources (float_of_int searched);
  t.latest <-
    snapshot t.pop ~epoch:(prev.snap_epoch + 1) ~base ~sp ~stretch ~dirty;
  t.stretches <- cert.stretches;
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

(* The record [create] and [restore] both start from, once [sp], the
   frozen [spanner], certifies against [base]; [fail] words the failure
   from the stretch and [t]. The gray-zone policy and the rebuild
   threshold are configuration, not state: a restored engine runs with
   the defaults. *)
let make ?backend ?(gray = Ubg.Gray_zone.Keep_all) ?(rebuild_threshold = 0.3)
    ~clock ~params ~pop ~spanner ~sp ~last_rebuild ~epoch ~base ~fail () =
  let { sp; stretches; stretch } = certify ~base sp in
  if not (certifies params stretch) then
    failwith (fail stretch params.Params.t);
  Obs.Metrics.set_gauge g_certify_sources
    (float_of_int (Population.n_alive pop));
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
    stretches;
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
    ~spanner ~sp:(Csr.of_wgraph spanner) ~last_rebuild ~epoch:0
    ~base:(Csr.of_wgraph model.Model.graph)
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
     hand-edited checkpoint must not become a serving engine. The
     snapshot's spanner is certified as given; only the live copy the
     repair edits is thawed. *)
  let t =
    make ?backend ~clock:Obs.Control.now ~params ~pop
      ~spanner:(Csr.to_wgraph snap.snap_spanner) ~sp:snap.snap_spanner
      ~last_rebuild:0.0
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
