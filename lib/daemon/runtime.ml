module Engine = Dynamic.Engine
module Point = Geometry.Point

let src = Logs.Src.create "daemon" ~doc:"topology daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type source = Tail of string | Socket_ingest of string

type config = {
  socket : string;
  source : source;
  checkpoint : string option;
  eps : float;
  oracle_eps : float;
  period : float;
  checkpoint_every_epochs : int;
  checkpoint_every_seconds : float;
  backend : Spanner.Backend.t option;
  quit_at_tail : bool;
  handle_signals : bool;
  tick : float;
}

let default ~socket ~source =
  {
    socket;
    source;
    checkpoint = None;
    eps = 0.5;
    oracle_eps = 0.5;
    period = 0.0;
    checkpoint_every_epochs = 0;
    checkpoint_every_seconds = 0.0;
    backend = None;
    quit_at_tail = false;
    handle_signals = false;
    tick = 0.05;
  }

type summary = {
  final_epoch : int;
  epochs_applied : int;
  events_applied : int;
  checkpoints_written : int;
  requests_served : int;
}

(* Engine-domain → stats-closure handoff: last-writer-wins scalars the
   STATS verb reports without touching the engine. *)
let g_epoch = lazy (Obs.Metrics.gauge "daemon.epoch")
let g_alive = lazy (Obs.Metrics.gauge "daemon.alive")
let g_events = lazy (Obs.Metrics.gauge "daemon.events")
let g_rate = lazy (Obs.Metrics.gauge "daemon.ev_per_s")
let g_tail = lazy (Obs.Metrics.gauge "daemon.tail_batches")
let g_batches = lazy (Obs.Metrics.gauge "daemon.batches_read")
let g_checkpoints = lazy (Obs.Metrics.gauge "daemon.checkpoints")
let g_dropped = lazy (Obs.Metrics.gauge "daemon.dropped_batches")
let g_repair_ms = lazy (Obs.Metrics.gauge "daemon.repair_ms")
let g_certify_ms = lazy (Obs.Metrics.gauge "daemon.certify_ms")

(* Set by the engine itself on every certification. *)
let g_certify_sources = lazy (Obs.Metrics.gauge "engine.certify_sources")

(* The start-up steps, each holding the last start-up's time: opening
   the source (the tail's prefix or the instance, and a resume's skip
   past the consumed batches), loading the checkpoint, creating or
   restoring the engine, and building the first oracle. *)
let t_source = lazy (Obs.Metrics.timer "daemon.start.source")
let t_checkpoint = lazy (Obs.Metrics.timer "daemon.start.checkpoint")
let t_engine = lazy (Obs.Metrics.timer "daemon.start.engine")
let t_oracle = lazy (Obs.Metrics.timer "daemon.start.oracle")

(* Each step's STATS row. *)
let start_rows =
  [
    ("daemon.start.source_ms", t_source);
    ("daemon.start.checkpoint_ms", t_checkpoint);
    ("daemon.start.engine_ms", t_engine);
    ("daemon.start.oracle_ms", t_oracle);
  ]

let step t f = Obs.Metrics.time (Lazy.force t) f
let source_name = function Tail path | Socket_ingest path -> path

(* A fresh start: the source's instance, and an engine built from it.
   Returns [(tail, engine, events consumed, dim)]. *)
let start_fresh config =
  let tail, model =
    step t_source (fun () ->
        match config.source with
        | Tail path ->
            let tail = Ingest.Tail.open_ ~wait_prefix:5.0 path in
            (Some tail, Ingest.Tail.initial tail)
        | Socket_ingest path -> (None, Ubg.Io.load_instance path))
  in
  let dim = Ubg.Model.dim model in
  let params =
    Topo.Params.of_epsilon ~eps:config.eps ~alpha:model.Ubg.Model.alpha ~dim
  in
  let engine =
    step t_engine (fun () ->
        Engine.create ?backend:config.backend ~params model)
  in
  (tail, engine, 0, dim)

(* The checkpoint must fit the source's header: the same dimension, the
   same alpha bit for bit, and room for the header's n nodes. *)
let check_fit config ~ckpath (ck : Checkpoint.t) (shape : Ubg.Io.shape) =
  let mismatch fmt =
    Printf.ksprintf
      (fun what ->
        failwith
          (Printf.sprintf "daemon: checkpoint %s does not fit %s: %s" ckpath
             (source_name config.source) what))
      fmt
  in
  let points = ck.Checkpoint.snapshot.Engine.snap_points in
  let dim = Point.dim points.(0) and cap = Array.length points in
  if dim <> shape.Ubg.Io.dim then
    mismatch "dimension %d, the source's is %d" dim shape.Ubg.Io.dim;
  if
    Int64.bits_of_float ck.Checkpoint.alpha
    <> Int64.bits_of_float shape.Ubg.Io.alpha
  then
    mismatch "alpha %.17g, the source's is %.17g" ck.Checkpoint.alpha
      shape.Ubg.Io.alpha;
  if cap < shape.Ubg.Io.n then
    mismatch "capacity %d, below the source's %d nodes" cap shape.Ubg.Io.n

(* A resume: the state comes from the checkpoint, so the source's
   instance is only checked (no model is built), the checkpoint is
   checked against it, the engine is restored and the tail skips the
   consumed batches. *)
let start_resumed config ~ckpath =
  let tail, shape =
    step t_source (fun () ->
        match config.source with
        | Tail path ->
            let tail = Ingest.Tail.open_checked ~wait_prefix:5.0 path in
            (Some tail, Ingest.Tail.shape tail)
        | Socket_ingest path -> (None, Ubg.Io.check_instance path))
  in
  try
    let ck = step t_checkpoint (fun () -> Checkpoint.load ckpath) in
    check_fit config ~ckpath ck shape;
    let dim = shape.Ubg.Io.dim in
    let params =
      Topo.Params.of_epsilon ~eps:config.eps ~alpha:ck.Checkpoint.alpha ~dim
    in
    let engine =
      step t_engine (fun () ->
          Checkpoint.restore ?backend:config.backend ~params ck)
    in
    let ck_epoch, ck_events = Checkpoint.cursor ck in
    Option.iter
      (fun tail -> step t_source (fun () -> Ingest.Tail.skip tail ck_epoch))
      tail;
    Log.app (fun m ->
        m "resumed from %s: epoch %d, %d events consumed" ckpath ck_epoch
          ck_events);
    (tail, engine, ck_events, dim)
  with e ->
    Option.iter Ingest.Tail.close tail;
    raise e

let run ?stop config =
  if config.tick <= 0.0 then invalid_arg "Runtime.run: tick must be positive";
  if config.period < 0.0 then invalid_arg "Runtime.run: negative period";
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  if config.handle_signals then begin
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler
  end;
  List.iter (fun (_, t) -> Obs.Metrics.reset (Lazy.force t)) start_rows;
  (* --- source and engine: decided before the source is opened ------ *)
  let tail, engine, start_events, dim =
    match config.checkpoint with
    | Some ckpath when Sys.file_exists ckpath -> start_resumed config ~ckpath
    | _ -> start_fresh config
  in
  (* Oracle serving plane. Attach runs on both paths deliberately: a
     restored engine carries NO epoch hooks (Engine.restore drops them
     by contract — hooks are configuration, not state), so the resume
     path must re-attach explicitly or the daemon would serve the
     resume epoch forever. Async: the hook only enqueues snapshots and
     a dedicated builder domain repairs/publishes, so ingest never
     waits on oracle construction. *)
  let service =
    step t_oracle (fun () ->
        Oracle.Service.attach ~eps:config.oracle_eps ~label:"daemon"
          ~async:true engine)
  in
  (* --- engine-domain counters ------------------------------------- *)
  let epochs = ref 0 and events = ref start_events in
  let checkpoints = ref 0 and dropped = ref 0 in
  let publish_gauges () =
    Obs.Metrics.set_gauge (Lazy.force g_epoch)
      (float_of_int (Engine.epoch engine));
    Obs.Metrics.set_gauge (Lazy.force g_alive)
      (float_of_int (Engine.n_alive engine));
    Obs.Metrics.set_gauge (Lazy.force g_events) (float_of_int !events);
    Obs.Metrics.set_gauge (Lazy.force g_checkpoints)
      (float_of_int !checkpoints);
    Obs.Metrics.set_gauge (Lazy.force g_dropped) (float_of_int !dropped);
    match tail with
    | Some tail ->
        Obs.Metrics.set_gauge (Lazy.force g_tail)
          (float_of_int (Ingest.Tail.advertised_batches tail));
        Obs.Metrics.set_gauge (Lazy.force g_batches)
          (float_of_int (Ingest.Tail.batches_read tail))
    | None -> ()
  in
  (* What STATS reports, the engine epoch and the publish lag behind it
     included, is right from the start, before the first batch lands. *)
  publish_gauges ();
  (* --- socket-ingest queue ------------------------------------------ *)
  let pending = Queue.create () in
  let pending_lock = Mutex.create () in
  let on_event =
    match config.source with
    | Tail _ -> None
    | Socket_ingest _ ->
        Some
          (fun line ->
            match Ubg.Io.parse_event ~dim line with
            | Error _ as e -> e
            | Ok ev ->
                Mutex.lock pending_lock;
                Queue.add ev pending;
                Mutex.unlock pending_lock;
                Ok ())
  in
  let stats () =
    let g l = Obs.Metrics.gauge_value (Lazy.force l) in
    let engine_epoch = int_of_float (g g_epoch) in
    [
      ("engine.epoch", string_of_int engine_epoch);
      ("engine.alive", string_of_int (int_of_float (g g_alive)));
      ("engine.repair_ms", Printf.sprintf "%.3f" (g g_repair_ms));
      ("engine.certify_ms", Printf.sprintf "%.3f" (g g_certify_ms));
      ( "engine.certify_sources",
        string_of_int (int_of_float (g g_certify_sources)) );
      ("ingest.events", string_of_int (int_of_float (g g_events)));
      ("ingest.ev_per_s", Printf.sprintf "%.1f" (g g_rate));
      ("ingest.batches", string_of_int (int_of_float (g g_batches)));
      ("ingest.tail", string_of_int (int_of_float (g g_tail)));
      ( "ingest.dropped_batches",
        string_of_int (int_of_float (g g_dropped)) );
      ("checkpoints", string_of_int (int_of_float (g g_checkpoints)));
    ]
    @ List.map
        (fun (key, t) ->
          ( key,
            Printf.sprintf "%.3f"
              (1e3 *. fst (Obs.Metrics.timer_value (Lazy.force t))) ))
        start_rows
    @
    let ost = Oracle.Service.stats service in
    [
      ("oracle.epoch", string_of_int ost.Oracle.Service.published_epoch);
      ("oracle.repairs", string_of_int ost.Oracle.Service.repairs);
      ( "oracle.scratch_builds",
        string_of_int ost.Oracle.Service.scratch_builds );
      ( "oracle.repair_fallbacks",
        string_of_int ost.Oracle.Service.repair_fallbacks );
      ("oracle.pending", string_of_int ost.Oracle.Service.pending);
      ( "oracle.builder_failed",
        if ost.Oracle.Service.builder_failed then "1" else "0" );
      (* The gauge is set after the batch that the builder may already
         have published, so a moment's negative lag reads 0. *)
      ( "oracle.publish_lag",
        string_of_int
          (max 0 (engine_epoch - ost.Oracle.Service.published_epoch)) );
    ]
  in
  let server =
    Server.create ~socket:config.socket ~service ~stop ?on_event ~stats
      ~tick:config.tick ()
  in
  (* --- engine domain ------------------------------------------------ *)
  let engine_loop () =
    let clock = Clock.create ~period:config.period () in
    let last_ck_time = ref (Unix.gettimeofday ()) in
    let last_ck_epoch = ref (Engine.epoch engine) in
    let rate_t0 = ref (Unix.gettimeofday ()) in
    let rate_ev0 = ref start_events in
    let last_progress = ref 0.0 in
    let rate () =
      let now = Unix.gettimeofday () in
      let dt = now -. !rate_t0 in
      if dt >= 1.0 then begin
        let r = float_of_int (!events - !rate_ev0) /. dt in
        Obs.Metrics.set_gauge (Lazy.force g_rate) r;
        rate_t0 := now;
        rate_ev0 := !events
      end;
      Obs.Metrics.gauge_value (Lazy.force g_rate)
    in
    let progress () =
      let now = Unix.gettimeofday () in
      if now -. !last_progress >= 1.0 then begin
        last_progress := now;
        let tail_len =
          match tail with
          | Some tail -> Ingest.Tail.advertised_batches tail
          | None -> -1
        in
        Log.app (fun m ->
            m "epoch %d / tail %d, %.0f ev/s" (Engine.epoch engine) tail_len
              (rate ()))
      end
    in
    let write_checkpoint () =
      match config.checkpoint with
      | None -> ()
      | Some path ->
          let cursor_events =
            match tail with
            | Some tail -> Ingest.Tail.events_read tail
            | None -> !events
          in
          Checkpoint.save ~path ~events:cursor_events engine;
          incr checkpoints;
          last_ck_time := Unix.gettimeofday ();
          last_ck_epoch := Engine.epoch engine;
          Log.info (fun m ->
              m "checkpoint %d written at epoch %d" !checkpoints
                (Engine.epoch engine))
    in
    let checkpoint_due () =
      config.checkpoint <> None
      && ((config.checkpoint_every_epochs > 0
          && Engine.epoch engine - !last_ck_epoch
             >= config.checkpoint_every_epochs)
         || config.checkpoint_every_seconds > 0.0
            && Unix.gettimeofday () -. !last_ck_time
               >= config.checkpoint_every_seconds)
    in
    let next_batch () =
      match tail with
      | Some tail -> (
          match Ingest.Tail.poll tail with
          | Some b -> `Batch b
          | None ->
              if
                config.quit_at_tail
                && Ingest.Tail.batches_read tail
                   >= Ingest.Tail.advertised_batches tail
              then `Done
              else `Wait)
      | None ->
          Mutex.lock pending_lock;
          let k = Queue.length pending in
          let b = Array.init k (fun _ -> Queue.take pending) in
          Mutex.unlock pending_lock;
          if k > 0 then `Batch b else `Idle
    in
    (try
       while not (Atomic.get stop) do
         if Clock.due clock then (
           match next_batch () with
           | `Batch batch -> (
               match Engine.apply_batch engine batch with
               | report ->
                   (* The last epoch's split, as the engine timed it. *)
                   Obs.Metrics.set_gauge (Lazy.force g_repair_ms)
                     (1e3 *. report.Engine.repair_seconds);
                   Obs.Metrics.set_gauge (Lazy.force g_certify_ms)
                     (1e3 *. report.Engine.certify_seconds);
                   incr epochs;
                   events := !events + Array.length batch;
                   Clock.advance clock;
                   publish_gauges ();
                   ignore (rate ());
                   progress ();
                   if checkpoint_due () then write_checkpoint ()
               | exception (Invalid_argument msg | Failure msg)
                 when Option.is_none tail ->
                   (* A client's batch (a recorded trace's stays fatal,
                      below): apply_batch has put the engine back at its
                      latest epoch, so drop the batch and go on. *)
                   Log.err (fun m ->
                       m "dropped a batch of %d client events: %s"
                         (Array.length batch) msg);
                   incr dropped;
                   Clock.advance clock;
                   publish_gauges ())
           | `Idle ->
               (* socket mode, nothing pending: skip the epoch, and
                  sleep — with period = 0 the clock is always due, so
                  an unslept idle loop would peg a core and contend
                  pending_lock against the server's EV handler *)
               Clock.advance clock;
               Unix.sleepf (Float.min config.tick 0.02)
           | `Wait -> Unix.sleepf (Float.min config.tick 0.02)
           | `Done -> Atomic.set stop true)
         else Unix.sleepf (Float.min (Clock.seconds_until clock) 0.05)
       done
     with
    | Failure msg ->
        Log.err (fun m -> m "engine stopped: %s" msg);
        Atomic.set stop true
    | Invalid_argument msg ->
        Log.err (fun m -> m "engine stopped on bad event: %s" msg);
        Atomic.set stop true);
    (* Final checkpoint: SIGTERM, SHUTDOWN and quit_at_tail all land
       here, so a restart resumes exactly where serving stopped. *)
    (try write_checkpoint ()
     with e ->
       Log.err (fun m ->
           m "final checkpoint failed: %s" (Printexc.to_string e)));
    publish_gauges ()
  in
  let engine_domain = Domain.spawn engine_loop in
  Server.run server;
  Domain.join engine_domain;
  (* Drain and join the oracle builder; its failures should not mask a
     clean engine shutdown, but they must not pass silently either. *)
  (try Oracle.Service.shutdown service
   with e ->
     Log.err (fun m -> m "oracle builder failed: %s" (Printexc.to_string e)));
  (match tail with Some t -> Ingest.Tail.close t | None -> ());
  {
    final_epoch = Engine.epoch engine;
    epochs_applied = !epochs;
    events_applied = !events - start_events;
    checkpoints_written = !checkpoints;
    requests_served = Server.n_requests server;
  }

(* ------------------------------------------------------------------ *)
(* In-process handle                                                   *)
(* ------------------------------------------------------------------ *)

type handle = { h_stop : bool Atomic.t; h_domain : summary Domain.t }

let start ?stop config =
  let h_stop = match stop with Some s -> s | None -> Atomic.make false in
  { h_stop; h_domain = Domain.spawn (fun () -> run ~stop:h_stop config) }

let stop h =
  Atomic.set h.h_stop true;
  Domain.join h.h_domain

let join h = Domain.join h.h_domain
