(* Fork-join domain pool, stdlib only (Domain + Mutex/Condition +
   Atomic). One job is in flight at a time; a job is a bag of
   contiguous index chunks claimed with a fetch-and-add cursor. The
   submitting domain participates, so a pool of size k spawns k - 1
   workers. Workers park on a condition variable between jobs and are
   woken by a generation counter bump. *)

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let run_in_worker () = Domain.DLS.get in_worker_key

let sequentially f =
  let saved = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key saved) f

(* Observability: counters are always on (a store per job), task spans
   and queue-wait samples only when tracing is enabled. *)
let m_jobs = Obs.Metrics.counter "pool.jobs"
let m_wakes = Obs.Metrics.counter "pool.wakes"

let m_queue_wait =
  Obs.Metrics.histogram "pool.queue_wait_s"
    ~buckets:[| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1 |]

let m_chunk_items =
  Obs.Metrics.histogram "pool.chunk_items"
    ~buckets:[| 1.; 8.; 64.; 512.; 4096.; 32768. |]

type job = {
  run : int -> unit; (* chunk index -> work *)
  n_chunks : int;
  next : int Atomic.t; (* next unclaimed chunk *)
  pending : int Atomic.t; (* chunks not yet finished *)
  failed : exn option Atomic.t; (* first failure wins *)
  published : float; (* submit time when tracing is enabled, else 0 *)
}

type pool = {
  n_domains : int; (* workers + the submitting domain *)
  mutex : Mutex.t;
  work_ready : Condition.t; (* a new generation was published *)
  work_done : Condition.t; (* some job's pending hit 0 *)
  mutable generation : int;
  mutable current : job option;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

(* Claim chunks until the cursor runs off the end. Every chunk index is
   claimed exactly once, and its claimer decrements [pending] exactly
   once, so [pending] always reaches 0 even when bodies raise. After a
   failure the remaining chunks are claimed but not run.

   Bookkeeping is a fetch-and-add per chunk; only the claimer of the
   LAST chunk takes the mutex, for the single wake-up of the waiting
   submitter (locking around the broadcast is what guarantees the
   submitter cannot miss it between its pending check and its wait). *)
let execute pool job =
  let rec claim () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.n_chunks then begin
      (match Atomic.get job.failed with
      | None -> (
          try
            if Obs.Control.enabled () then
              Obs.Trace.span ~cat:"pool"
                ~args:(fun () -> [ ("chunk", float_of_int c) ])
                "task"
                (fun () -> job.run c)
            else job.run c
          with e -> ignore (Atomic.compare_and_set job.failed None (Some e)))
      | Some _ -> ());
      if Atomic.fetch_and_add job.pending (-1) = 1 then begin
        Mutex.lock pool.mutex;
        Condition.broadcast pool.work_done;
        Mutex.unlock pool.mutex
      end;
      claim ()
    end
  in
  claim ()

let worker_loop pool =
  Domain.DLS.set in_worker_key true;
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stopping) && pool.generation = !last do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stopping then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      last := pool.generation;
      let job = pool.current in
      Mutex.unlock pool.mutex;
      (* A late wake-up may find the job already drained; [execute]
         then claims nothing and returns immediately. *)
      match job with
      | None -> ()
      | Some job ->
          if job.published > 0.0 && Obs.Control.enabled () then
            Obs.Metrics.observe m_queue_wait
              (Float.max 0.0 (Obs.Control.now () -. job.published));
          execute pool job
    end
  done

let create n =
  let pool =
    {
      n_domains = n;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      current = None;
      stopping = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let stop pool =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers

(* ------------------------------------------------------------------ *)
(* The global pool                                                     *)
(* ------------------------------------------------------------------ *)

let global_lock = Mutex.create ()
let the_pool : pool option ref = ref None
let programmatic : int option ref = ref None

let env_domains () =
  match Sys.getenv_opt "TOPO_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let target_size () =
  match !programmatic with
  | Some n -> n
  | None -> (
      match env_domains () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

(* Fetch the pool, (re)creating it when the requested size changed.
   [?domains] wins over every sticky setting, for this fetch only. *)
let get_pool ?domains () =
  let want =
    match domains with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Pool: domains must be >= 1"
    | None -> target_size ()
  in
  Mutex.lock global_lock;
  let pool =
    match !the_pool with
    | Some p when p.n_domains = want -> p
    | other ->
        (match other with Some p -> stop p | None -> ());
        let p = create want in
        the_pool := Some p;
        p
  in
  Mutex.unlock global_lock;
  pool

let shutdown () =
  Mutex.lock global_lock;
  (match !the_pool with Some p -> stop p | None -> ());
  the_pool := None;
  Mutex.unlock global_lock

let () = at_exit shutdown

let set_domains n =
  if n < 1 then invalid_arg "Pool.set_domains: need n >= 1";
  programmatic := Some n

let clear_domains () = programmatic := None

let size () = (get_pool ()).n_domains

(* Serializes submissions; also the reason nested calls must take the
   sequential path (the flag below) instead of re-entering [submit]. *)
let submit_lock = Mutex.create ()

(* How many parked workers to wake per job. Waking a worker costs two
   context switches on the job's critical path (the wake preempts the
   submitting domain, the worker parks again), so waking more workers
   than the machine has spare cores can only slow the job down: the
   extras time-share cores that are already busy. The budget is
   therefore min(workers, chunks beyond the submitter's first, spare
   hardware threads). On a single-core box it is 0 and the submitting
   domain drains every chunk itself — which is also the fastest
   possible schedule there. Missed wakes are harmless for correctness:
   the submitter always participates until [pending] reaches 0, and a
   worker that parks after the signals were sent re-checks the
   generation under the mutex first. [set_eager_wake true] (or
   TOPO_EAGER_WAKE=1) restores the wake-everyone broadcast so tests
   can exercise cross-domain execution even on small machines. *)
let hardware_threads = Domain.recommended_domain_count ()

let eager_wake =
  ref
    (match Sys.getenv_opt "TOPO_EAGER_WAKE" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false)

let set_eager_wake b = eager_wake := b

let wake_budget pool job =
  if !eager_wake then pool.n_domains - 1
  else
    max 0
      (min (pool.n_domains - 1) (min (job.n_chunks - 1) (hardware_threads - 1)))

let submit pool job =
  Mutex.lock submit_lock;
  Obs.Metrics.incr m_jobs;
  Mutex.lock pool.mutex;
  pool.current <- Some job;
  pool.generation <- pool.generation + 1;
  (let budget = wake_budget pool job in
   Obs.Metrics.add m_wakes budget;
   if budget >= pool.n_domains - 1 then Condition.broadcast pool.work_ready
   else
     for _ = 1 to budget do
       Condition.signal pool.work_ready
     done);
  Mutex.unlock pool.mutex;
  (* Participate. The in-worker flag makes any nested combinator call
     inside [job.run] run sequentially rather than deadlock here. *)
  Domain.DLS.set in_worker_key true;
  execute pool job;
  Domain.DLS.set in_worker_key false;
  Mutex.lock pool.mutex;
  while Atomic.get job.pending > 0 do
    Condition.wait pool.work_done pool.mutex
  done;
  Mutex.unlock pool.mutex;
  Mutex.unlock submit_lock;
  match Atomic.get job.failed with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Grain control                                                       *)
(* ------------------------------------------------------------------ *)

(* The grain is the number of items per chunk. Sticky settings mirror
   the domain-count ones: a [?grain] argument wins for that call, then
   [set_grain]. With no setting the default is adaptive: enough chunks
   for the cursor to balance uneven item costs (~6 per domain, the
   middle of the 4-8x band), never more chunks than items, and a
   single chunk when only one domain would claim them. Chunks are
   contiguous index ranges whatever the grain, so every combinator
   stays order-preserving. *)
let programmatic_grain : int option ref = ref None

let set_grain g =
  if g < 1 then invalid_arg "Pool.set_grain: need grain >= 1";
  programmatic_grain := Some g

let clear_grain () = programmatic_grain := None

let chunks_for pool ?grain n =
  let forced =
    match grain with
    | Some g when g >= 1 -> Some g
    | Some _ -> invalid_arg "Pool: grain must be >= 1"
    | None -> !programmatic_grain
  in
  match forced with
  | Some g -> (n + g - 1) / g
  | None -> min n (pool.n_domains * 6)

(* Runs [f] on [[lo, hi)] over the pool. Precondition: hi > lo and the
   caller is not a worker and the pool has >= 2 domains. *)
let for_range pool ?grain lo hi f =
  let n = hi - lo in
  let n_chunks = chunks_for pool ?grain n in
  let run c =
    let c_lo = lo + (c * n / n_chunks) and c_hi = lo + ((c + 1) * n / n_chunks) in
    for i = c_lo to c_hi - 1 do
      f i
    done
  in
  Obs.Metrics.observe m_chunk_items (float_of_int n /. float_of_int n_chunks);
  submit pool
    {
      run;
      n_chunks;
      next = Atomic.make 0;
      pending = Atomic.make n_chunks;
      failed = Atomic.make None;
      published = (if Obs.Control.enabled () then Obs.Control.now () else 0.0);
    }

let sequential ?domains () =
  run_in_worker ()
  ||
  match domains with Some 1 -> true | Some _ | None -> false

let parallel_for ?domains ?grain n f =
  if n > 0 then
    if sequential ?domains () then
      for i = 0 to n - 1 do
        f i
      done
    else
      let pool = get_pool ?domains () in
      if pool.n_domains = 1 then
        for i = 0 to n - 1 do
          f i
        done
      else for_range pool ?grain 0 n f

(* Chunk-level variant of [parallel_for]: the body sees each claimed
   contiguous range [[lo, hi)] once, so per-chunk setup (fetching the
   domain's Dijkstra workspace, say) is paid per chunk instead of per
   item. Chunk boundaries are the same deterministic index arithmetic
   as [for_range]; which domain claims which chunk is scheduling-
   dependent, so bodies must only write to item-indexed slots. *)
let iter_chunks ?domains ?grain n f =
  if n > 0 then
    if sequential ?domains () then f 0 n
    else
      let pool = get_pool ?domains () in
      if pool.n_domains = 1 then f 0 n
      else begin
        let n_chunks = chunks_for pool ?grain n in
        let run c = f (c * n / n_chunks) ((c + 1) * n / n_chunks) in
        Obs.Metrics.observe m_chunk_items
          (float_of_int n /. float_of_int n_chunks);
        submit pool
          {
            run;
            n_chunks;
            next = Atomic.make 0;
            pending = Atomic.make n_chunks;
            failed = Atomic.make None;
            published =
              (if Obs.Control.enabled () then Obs.Control.now () else 0.0);
          }
      end

let mapi ?domains ?grain f a =
  let n = Array.length a in
  if n = 0 then [||]
  else if sequential ?domains () then Array.mapi f a
  else
    let pool = get_pool ?domains () in
    if pool.n_domains = 1 then Array.mapi f a
    else begin
      (* Slot 0 is computed first on the calling domain, exactly like
         [Array.mapi], and doubles as the array initializer. *)
      let out = Array.make n (f 0 a.(0)) in
      if n > 1 then for_range pool ?grain 1 n (fun i -> out.(i) <- f i a.(i));
      out
    end

let map ?domains ?grain f a = mapi ?domains ?grain (fun _ x -> f x) a

let map_reduce ?domains ?grain ~map:f ~fold ~init a =
  Array.fold_left fold init (map ?domains ?grain f a)
