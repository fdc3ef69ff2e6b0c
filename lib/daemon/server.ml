module Service = Oracle.Service
module Dist = Oracle.Dist

let src = Logs.Src.create "daemon.server" ~doc:"query-serving loop"

module Log = (val Logs.src_log src : Logs.LOG)

(* Per-connection state: an incremental frame decoder on the read side
   and a pending-bytes buffer on the write side (responses that did not
   fit the socket buffer are flushed when select reports writability). *)
type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable out : Bytes.t;
  mutable out_off : int;
  mutable out_len : int;
  mutable broken : bool;
      (* write side failed (EPIPE/ECONNRESET): drop at next opportunity *)
}

type t = {
  listen_fd : Unix.file_descr;
  socket_path : string;
  service : Service.t;
  stop : bool Atomic.t;
  on_event : (string -> (unit, string) result) option;
  stats : (unit -> (string * string) list) option;
  tick : float;
  qws : Dist.query_ws;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  read_buf : bytes;
  mutable requests : int;
  m_requests : Obs.Metrics.t;
  m_errors : Obs.Metrics.t;
  m_connections : Obs.Metrics.t;
  m_service : Obs.Metrics.t;
}

(* A stale socket file (daemon died without unlinking) refuses
   connections; a live daemon accepts.  Probe before unlinking so a
   second daemon fails loudly instead of silently stealing the socket
   out from under a running one. *)
let claim_socket_path socket =
  match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match Unix.connect probe (Unix.ADDR_UNIX socket) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
        | exception Unix.Unix_error (e, _, _) -> `Error e
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      match verdict with
      | `Live ->
          failwith
            (Printf.sprintf
               "Server.create: a daemon is already listening on %s" socket)
      | `Stale ->
          (try Unix.unlink socket
           with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
      | `Gone -> ()
      | `Error e ->
          failwith
            (Printf.sprintf "Server.create: cannot probe %s: %s" socket
               (Unix.error_message e)))
  | _ ->
      failwith
        (Printf.sprintf "Server.create: %s exists and is not a socket" socket)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let create ~socket ~service ~stop ?on_event ?stats ?(tick = 0.05) () =
  if tick <= 0.0 then invalid_arg "Server.create: tick must be positive";
  (* A client that closes mid-response must not kill the daemon: turn
     SIGPIPE into EPIPE from Unix.write, handled in flush_out. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  claim_socket_path socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  {
    listen_fd;
    socket_path = socket;
    service;
    stop;
    on_event;
    stats;
    tick;
    qws = Dist.create_query_ws ();
    conns = Hashtbl.create 16;
    read_buf = Bytes.create 65536;
    requests = 0;
    m_requests = Obs.Metrics.counter "daemon.requests";
    m_errors = Obs.Metrics.counter "daemon.request_errors";
    m_connections = Obs.Metrics.counter "daemon.connections";
    m_service = Obs.Metrics.timer "daemon.request_service";
  }

let n_requests t = t.requests

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let in_range n u = u >= 0 && u < n

let answer t payload =
  let entry = Service.current t.service in
  let epoch = entry.Service.epoch in
  let oracle = entry.Service.oracle in
  let n = Graph.Csr.n_vertices entry.Service.csr in
  let err msg =
    Obs.Metrics.incr t.m_errors;
    "ERR " ^ msg
  in
  match Wire.parse_request payload with
  | Error msg -> err msg
  | Ok Wire.Ping -> Printf.sprintf "PONG %d" epoch
  | Ok Wire.Epoch -> Printf.sprintf "EPOCH %d" epoch
  | Ok Wire.Shutdown ->
      Atomic.set t.stop true;
      Printf.sprintf "BYE %d" epoch
  | Ok (Wire.Dist (u, v)) ->
      if not (in_range n u && in_range n v) then
        err (Printf.sprintf "vertex out of range [0, %d)" n)
      else
        Printf.sprintf "DIST %d %d %d %.17g" epoch u v
          (Dist.distance_estimate oracle t.qws u v)
  | Ok (Wire.Path (u, v)) ->
      if not (in_range n u && in_range n v) then
        err (Printf.sprintf "vertex out of range [0, %d)" n)
      else (
        match Dist.spanner_path oracle t.qws ~src:u ~dst:v with
        | None -> Printf.sprintf "PATH %d -1" epoch
        | Some p ->
            let b = Buffer.create (16 + (8 * Array.length p)) in
            Buffer.add_string b
              (Printf.sprintf "PATH %d %d" epoch (Array.length p - 1));
            Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %d" v)) p;
            Buffer.contents b)
  | Ok (Wire.Hop (u, dst)) ->
      if not (in_range n u && in_range n dst) then
        err (Printf.sprintf "vertex out of range [0, %d)" n)
      else
        Printf.sprintf "HOP %d %d" epoch (Dist.next_hop oracle t.qws u ~dst)
  | Ok (Wire.Event line) -> (
      match t.on_event with
      | None -> err "ingest is tail mode; EV not accepted"
      | Some f -> (
          match f line with
          | Ok () -> Printf.sprintf "OK %d" epoch
          | Error msg -> err msg))
  | Ok Wire.Stats ->
      let st = Dist.stats oracle in
      let rows =
        [
          ("epoch", string_of_int epoch);
          ("oracle.n", string_of_int st.Dist.n);
          ("oracle.edges", string_of_int st.Dist.n_edges);
          ("oracle.clusters", string_of_int st.Dist.n_clusters);
          ("oracle.near_answers", string_of_int (Dist.near_answers t.qws));
          ("oracle.far_answers", string_of_int (Dist.far_answers t.qws));
          ("requests", string_of_int t.requests);
        ]
        @ (match t.stats with None -> [] | Some f -> f ())
      in
      let b = Buffer.create 128 in
      Buffer.add_string b (Printf.sprintf "STATS %d" epoch);
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v))
        rows;
      Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Connection plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let enqueue conn s =
  let n = String.length s in
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string s 0 frame 4 n;
  let need = conn.out_len + 4 + n in
  if conn.out_off + need > Bytes.length conn.out then begin
    (* compact, then grow if still needed *)
    Bytes.blit conn.out conn.out_off conn.out 0 conn.out_len;
    conn.out_off <- 0;
    if need > Bytes.length conn.out then begin
      let cap = ref (Bytes.length conn.out) in
      while need > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit conn.out 0 nb 0 conn.out_len;
      conn.out <- nb
    end
  end;
  Bytes.blit frame 0 conn.out (conn.out_off + conn.out_len) (4 + n);
  conn.out_len <- conn.out_len + 4 + n

let flush_out conn =
  let continue = ref true in
  while !continue && conn.out_len > 0 && not conn.broken do
    match Unix.write conn.fd conn.out conn.out_off conn.out_len with
    | 0 -> continue := false
    | k ->
        conn.out_off <- conn.out_off + k;
        conn.out_len <- conn.out_len - k;
        if conn.out_len = 0 then conn.out_off <- 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) ->
        (* EPIPE/ECONNRESET: peer is gone, never a reason to crash the
           serving loop — mark the connection for drop instead *)
        conn.broken <- true;
        continue := false
  done

let drop t conn =
  Hashtbl.remove t.conns conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let handle_readable t conn =
  let closed = ref false in
  (try
     let continue = ref true in
     while !continue do
       match Unix.read conn.fd t.read_buf 0 (Bytes.length t.read_buf) with
       | 0 ->
           closed := true;
           continue := false
       | k ->
           Wire.feed conn.dec t.read_buf 0 k;
           let rec drain () =
             match Wire.next conn.dec with
             | None -> ()
             | Some payload ->
                 let t0 = Obs.Control.now () in
                 let resp = answer t payload in
                 t.requests <- t.requests + 1;
                 Obs.Metrics.incr t.m_requests;
                 Obs.Metrics.add_seconds t.m_service
                   (Obs.Control.now () -. t0);
                 enqueue conn resp;
                 drain ()
           in
           drain ()
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
         ->
           continue := false
     done
   with
  | Failure msg ->
      (* protocol violation (oversized frame): tell the client why,
         best-effort, then drop *)
      Log.warn (fun m -> m "dropping client: %s" msg);
      Obs.Metrics.incr t.m_errors;
      enqueue conn ("ERR protocol: " ^ msg);
      closed := true
  | Unix.Unix_error (e, _, _) ->
      Log.warn (fun m -> m "dropping client: %s" (Unix.error_message e));
      closed := true);
  flush_out conn;
  if !closed || conn.broken then drop t conn

let accept_clients t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        Obs.Metrics.incr t.m_connections;
        Hashtbl.replace t.conns fd
          {
            fd;
            dec = Wire.decoder ();
            out = Bytes.create 4096;
            out_off = 0;
            out_len = 0;
            broken = false;
          }
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
  done

let run t =
  Log.info (fun m -> m "serving on %s" t.socket_path);
  while not (Atomic.get t.stop) do
    let rds =
      t.listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) t.conns []
    in
    let wrs =
      Hashtbl.fold
        (fun fd c acc -> if c.out_len > 0 then fd :: acc else acc)
        t.conns []
    in
    match Unix.select rds wrs [] t.tick with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then accept_clients t
            else
              match Hashtbl.find_opt t.conns fd with
              | Some conn -> handle_readable t conn
              | None -> ())
          readable;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt t.conns fd with
            | Some conn ->
                flush_out conn;
                if conn.broken then drop t conn
            | None -> ())
          writable
  done;
  Hashtbl.iter
    (fun _ conn ->
      (* best-effort flush of queued responses (the BYE of a SHUTDOWN) *)
      flush_out conn;
      try Unix.close conn.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "served %d requests" t.requests)
