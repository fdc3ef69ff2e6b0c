module Engine = Dynamic.Engine

type entry = { epoch : int; csr : Graph.Csr.t; oracle : Dist.t }

(* One queued oracle construction: an epoch's spanner plus the dirty
   vertices relative to the immediately preceding epoch. [None] means
   the repair chain is broken (first epoch, missed epochs, coalesced
   backlog) and the oracle must be built from scratch. *)
type job = {
  job_epoch : int;
  job_csr : Graph.Csr.t;
  job_dirty : int array option;
}

(* Async construction plane: a single builder domain draining an
   ordered queue. The queue is bounded — if the builder falls further
   behind than [queue_bound] epochs, the backlog is dropped and the
   newest epoch is scratch-built (its dirty set no longer describes
   the step from the last built oracle). *)
type worker = {
  mu : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  mutable in_flight : bool;
  mutable stop : bool;
  mutable failed : exn option;
  mutable dom : unit Domain.t option;
}

let queue_bound = 32

(* The serving plane is still one atomic cell per service: [Atomic.set]
   / [compare_and_set] is a release store and [Atomic.get] an acquire
   load in the OCaml memory model, so the oracle a reader obtains is
   fully built; no locks anywhere on the read side. Build parameters
   are frozen at creation so every epoch is built the same way. *)
type t = {
  cell : entry Atomic.t;
  eps : float option;
  max_clusters : int option;
  label : string;
  g_epoch : Obs.Metrics.gauge;
  g_build : Obs.Metrics.gauge;
  c_repairs : int Atomic.t;
  c_scratch : int Atomic.t;
  c_fallbacks : int Atomic.t;
  mutable worker : worker option;
}

type service_stats = {
  label : string;
  published_epoch : int;
  repairs : int;
  scratch_builds : int;
  repair_fallbacks : int;
  pending : int;
}

let current s = Atomic.get s.cell

(* ------------------------------------------------------------------ *)
(* Construction and installation                                       *)
(* ------------------------------------------------------------------ *)

(* Build the entry for [epoch], repairing forward from the latest
   published entry when the dirty chain is intact: repair demands that
   [dirty] describe exactly the step from the previous oracle's
   snapshot to [csr], so anything other than a +1 epoch step falls
   back to scratch. *)
let compute s ~dirty ~epoch csr =
  let prev = Atomic.get s.cell in
  let t0 = Unix.gettimeofday () in
  let oracle =
    match dirty with
    | Some d when epoch = prev.epoch + 1 ->
        let r =
          Dist.repair ?max_clusters:s.max_clusters ~prev:prev.oracle ~dirty:d
            csr
        in
        if r.Dist.repaired then Atomic.incr s.c_repairs
        else begin
          Atomic.incr s.c_scratch;
          Atomic.incr s.c_fallbacks
        end;
        r.Dist.oracle
    | _ ->
        Atomic.incr s.c_scratch;
        Dist.build ?eps:s.eps ?max_clusters:s.max_clusters csr
  in
  Obs.Metrics.set_gauge s.g_build (Unix.gettimeofday () -. t0);
  { epoch; csr; oracle }

(* Monotonic install: publication is idempotent by epoch, so a late or
   duplicate build can never regress the served entry. *)
let install s entry =
  let rec go () =
    let cur = Atomic.get s.cell in
    if entry.epoch <= cur.epoch then false
    else if Atomic.compare_and_set s.cell cur entry then true
    else go ()
  in
  if go () then Obs.Metrics.set_gauge s.g_epoch (float_of_int entry.epoch)

let publish ?dirty s ~epoch csr = install s (compute s ~dirty ~epoch csr)

(* ------------------------------------------------------------------ *)
(* The async builder                                                   *)
(* ------------------------------------------------------------------ *)

let worker_loop s w =
  let running = ref true in
  while !running do
    Mutex.lock w.mu;
    while Queue.is_empty w.queue && not w.stop do
      Condition.wait w.cond w.mu
    done;
    if Queue.is_empty w.queue then begin
      (* stop && empty: drained. *)
      Mutex.unlock w.mu;
      running := false
    end
    else begin
      let job = Queue.pop w.queue in
      w.in_flight <- true;
      Mutex.unlock w.mu;
      (* [sequentially]: the builder must never contend with the
         engine's pipeline for the pool's submission lock — combinator
         results are bit-identical either way. *)
      (try
         let entry =
           Parallel.Pool.sequentially (fun () ->
               compute s ~dirty:job.job_dirty ~epoch:job.job_epoch job.job_csr)
         in
         install s entry
       with e ->
         Mutex.lock w.mu;
         if w.failed = None then w.failed <- Some e;
         Mutex.unlock w.mu);
      Mutex.lock w.mu;
      w.in_flight <- false;
      Condition.broadcast w.cond;
      Mutex.unlock w.mu
    end
  done

let start_worker s =
  let w =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      in_flight = false;
      stop = false;
      failed = None;
      dom = None;
    }
  in
  w.dom <- Some (Domain.spawn (fun () -> worker_loop s w));
  w

let enqueue w ~epoch ~dirty csr =
  Mutex.lock w.mu;
  if Queue.length w.queue >= queue_bound then begin
    (* The builder is hopelessly behind: drop the backlog and
       scratch-build the newest epoch (skipping epochs breaks the
       dirty chain, so repair would be unsound). *)
    Queue.clear w.queue;
    Queue.push { job_epoch = epoch; job_csr = csr; job_dirty = None } w.queue
  end
  else Queue.push { job_epoch = epoch; job_csr = csr; job_dirty = dirty } w.queue;
  Condition.broadcast w.cond;
  Mutex.unlock w.mu

let flush s =
  match s.worker with
  | None -> ()
  | Some w ->
      Mutex.lock w.mu;
      while (not (Queue.is_empty w.queue)) || w.in_flight do
        Condition.wait w.cond w.mu
      done;
      let f = w.failed in
      w.failed <- None;
      Mutex.unlock w.mu;
      (match f with Some e -> raise e | None -> ())

let shutdown s =
  match s.worker with
  | None -> ()
  | Some w ->
      Mutex.lock w.mu;
      w.stop <- true;
      Condition.broadcast w.cond;
      Mutex.unlock w.mu;
      (match w.dom with Some d -> Domain.join d | None -> ());
      s.worker <- None;
      (match w.failed with Some e -> raise e | None -> ())

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let create ?eps ?max_clusters ~label ~epoch csr =
  let s =
    {
      cell =
        Atomic.make { epoch; csr; oracle = Dist.build ?eps ?max_clusters csr };
      eps;
      max_clusters;
      label;
      g_epoch = Obs.Metrics.gauge ("oracle.published_epoch." ^ label);
      g_build = Obs.Metrics.gauge ("oracle.build_seconds." ^ label);
      c_repairs = Atomic.make 0;
      c_scratch = Atomic.make 1;
      c_fallbacks = Atomic.make 0;
      worker = None;
    }
  in
  Obs.Metrics.set_gauge s.g_epoch (float_of_int epoch);
  s

let of_csr ?eps ?max_clusters ?(label = "static") csr =
  create ?eps ?max_clusters ~label ~epoch:0 csr

let attach ?eps ?max_clusters ?(label = "engine") ?(async = false) engine =
  let snap = Engine.latest engine in
  let s =
    create ?eps ?max_clusters ~label ~epoch:snap.Engine.snap_epoch
      snap.Engine.snap_spanner
  in
  if async then s.worker <- Some (start_worker s);
  let submit ~epoch ~dirty csr =
    match s.worker with
    | Some w -> enqueue w ~epoch ~dirty csr
    | None -> install s (compute s ~dirty ~epoch csr)
  in
  Engine.on_epoch engine (fun sn ->
      submit ~epoch:sn.Engine.snap_epoch ~dirty:(Some sn.Engine.snap_dirty)
        sn.Engine.snap_spanner);
  (* Close the missed-epoch window: an epoch published between the
     [latest] read above and the hook registration would otherwise
     leave the service stale until the next batch. Install is
     idempotent by epoch, so racing with the hook is harmless. A +1
     step still carries a valid dirty chain; a wider gap lost the
     intermediate diffs and goes through scratch. *)
  let snap' = Engine.latest engine in
  if snap'.Engine.snap_epoch > snap.Engine.snap_epoch then begin
    let dirty =
      if snap'.Engine.snap_epoch = snap.Engine.snap_epoch + 1 then
        Some snap'.Engine.snap_dirty
      else None
    in
    submit ~epoch:snap'.Engine.snap_epoch ~dirty snap'.Engine.snap_spanner
  end;
  s

let stats s =
  let pending =
    match s.worker with
    | None -> 0
    | Some w ->
        Mutex.lock w.mu;
        let p = Queue.length w.queue + if w.in_flight then 1 else 0 in
        Mutex.unlock w.mu;
        p
  in
  {
    label = s.label;
    published_epoch = (Atomic.get s.cell).epoch;
    repairs = Atomic.get s.c_repairs;
    scratch_builds = Atomic.get s.c_scratch;
    repair_fallbacks = Atomic.get s.c_fallbacks;
    pending;
  }
