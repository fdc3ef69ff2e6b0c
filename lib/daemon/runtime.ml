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
let g_repair_ms = lazy (Obs.Metrics.gauge "daemon.repair_ms")
let g_certify_ms = lazy (Obs.Metrics.gauge "daemon.certify_ms")

let run ?stop config =
  if config.tick <= 0.0 then invalid_arg "Runtime.run: tick must be positive";
  if config.period < 0.0 then invalid_arg "Runtime.run: negative period";
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  if config.handle_signals then begin
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler
  end;
  (* --- ingest source ------------------------------------------------ *)
  let tail, initial_model, dim =
    match config.source with
    | Tail path ->
        let tail = Ingest.Tail.open_ ~wait_prefix:5.0 path in
        (Some tail, Ingest.Tail.initial tail, Ingest.Tail.dim tail)
    | Socket_ingest path ->
        let model = Ubg.Io.load_instance path in
        (None, model, Ubg.Model.dim model)
  in
  (* --- engine: fresh or resumed ------------------------------------- *)
  let engine, start_events =
    match config.checkpoint with
    | Some ckpath when Sys.file_exists ckpath ->
        let ck = Checkpoint.load ckpath in
        let alpha = ck.Ubg.Io.ck_alpha in
        let ck_dim = Point.dim ck.Ubg.Io.ck_points.(0) in
        if ck_dim <> dim then
          failwith
            (Printf.sprintf
               "daemon: checkpoint dimension %d does not match source \
                dimension %d"
               ck_dim dim);
        let params = Topo.Params.of_epsilon ~eps:config.eps ~alpha ~dim in
        let engine =
          Checkpoint.restore ?backend:config.backend ~params ck
        in
        let ck_epoch, ck_events = Checkpoint.cursor ck in
        (match tail with
        | Some tail -> Ingest.Tail.skip tail ck_epoch
        | None -> ());
        Log.app (fun m ->
            m "resumed from %s: epoch %d, %d events consumed" ckpath ck_epoch
              ck_events);
        (engine, ck_events)
    | _ ->
        let params =
          Topo.Params.of_epsilon ~eps:config.eps
            ~alpha:initial_model.Ubg.Model.alpha ~dim
        in
        ( Engine.create ?backend:config.backend ~params initial_model,
          0 )
  in
  (* Oracle serving plane. Attach runs on both paths deliberately: a
     restored engine carries NO epoch hooks (Engine.restore drops them
     by contract — hooks are configuration, not state), so the resume
     path must re-attach explicitly or the daemon would serve the
     resume epoch forever. Async: the hook only enqueues snapshots and
     a dedicated builder domain repairs/publishes, so ingest never
     waits on oracle construction. *)
  let service =
    Oracle.Service.attach ~eps:config.oracle_eps ~label:"daemon" ~async:true
      engine
  in
  (* --- socket-ingest queue ------------------------------------------ *)
  let pending = Queue.create () in
  let pending_lock = Mutex.create () in
  let on_event =
    match config.source with
    | Tail _ -> None
    | Socket_ingest _ ->
        Some
          (fun line ->
            match Ingest.parse_event ~dim line with
            | Error _ as e -> e
            | Ok ev ->
                Mutex.lock pending_lock;
                Queue.add ev pending;
                Mutex.unlock pending_lock;
                Ok ())
  in
  let stats () =
    let g l = Obs.Metrics.gauge_value (Lazy.force l) in
    [
      ("engine.epoch", string_of_int (int_of_float (g g_epoch)));
      ("engine.alive", string_of_int (int_of_float (g g_alive)));
      ("engine.repair_ms", Printf.sprintf "%.3f" (g g_repair_ms));
      ("engine.certify_ms", Printf.sprintf "%.3f" (g g_certify_ms));
      ("ingest.events", string_of_int (int_of_float (g g_events)));
      ("ingest.ev_per_s", Printf.sprintf "%.1f" (g g_rate));
      ("ingest.batches", string_of_int (int_of_float (g g_batches)));
      ("ingest.tail", string_of_int (int_of_float (g g_tail)));
      ("checkpoints", string_of_int (int_of_float (g g_checkpoints)));
    ]
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
    ]
  in
  let server =
    Server.create ~socket:config.socket ~service ~stop ?on_event ~stats
      ~tick:config.tick ()
  in
  (* --- engine domain ------------------------------------------------ *)
  let engine_loop () =
    let clock = Clock.create ~period:config.period () in
    let epochs = ref 0 and events = ref start_events in
    let checkpoints = ref 0 in
    let last_ck_time = ref (Unix.gettimeofday ()) in
    let last_ck_epoch = ref (Engine.epoch engine) in
    let rate_t0 = ref (Unix.gettimeofday ()) in
    let rate_ev0 = ref start_events in
    let last_progress = ref 0.0 in
    let publish_gauges () =
      Obs.Metrics.set_gauge (Lazy.force g_epoch)
        (float_of_int (Engine.epoch engine));
      Obs.Metrics.set_gauge (Lazy.force g_alive)
        (float_of_int (Engine.n_alive engine));
      Obs.Metrics.set_gauge (Lazy.force g_events) (float_of_int !events);
      Obs.Metrics.set_gauge (Lazy.force g_checkpoints)
        (float_of_int !checkpoints);
      match tail with
      | Some tail ->
          Obs.Metrics.set_gauge (Lazy.force g_tail)
            (float_of_int (Ingest.Tail.advertised_batches tail));
          Obs.Metrics.set_gauge (Lazy.force g_batches)
            (float_of_int (Ingest.Tail.batches_read tail))
      | None -> ()
    in
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
           | `Batch batch ->
               let report = Engine.apply_batch engine batch in
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
    publish_gauges ();
    (!epochs, !events, !checkpoints)
  in
  let engine_domain = Domain.spawn engine_loop in
  Server.run server;
  let epochs_applied, events_applied, checkpoints_written =
    Domain.join engine_domain
  in
  (* Drain and join the oracle builder; its failures should not mask a
     clean engine shutdown, but they must not pass silently either. *)
  (try Oracle.Service.shutdown service
   with e ->
     Log.err (fun m -> m "oracle builder failed: %s" (Printexc.to_string e)));
  (match tail with Some t -> Ingest.Tail.close t | None -> ());
  {
    final_epoch = Engine.epoch engine;
    epochs_applied;
    events_applied = events_applied - start_events;
    checkpoints_written;
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
