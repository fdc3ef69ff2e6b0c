module Wire = Daemon.Wire
module Clock = Daemon.Clock
module Ingest = Daemon.Ingest
module Runtime = Daemon.Runtime
module Client = Daemon.Client
module Engine = Dynamic.Engine
module Io = Ubg.Io
module Wgraph = Graph.Wgraph
open Test_helpers

let temp_file suffix = Filename.temp_file "topo_daemon" suffix

let sock_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "topo_t%d_%s.sock" (Unix.getpid ()) tag)

(* ---- wire framing ---------------------------------------------------- *)

let test_wire_frames () =
  let r, w = Unix.pipe () in
  let payloads = [ ""; "PING"; "DIST 0 1"; String.make 4096 'x' ] in
  List.iter (Wire.write_frame w) payloads;
  List.iter
    (fun p ->
      match Wire.read_frame r with
      | Some got -> Alcotest.(check string) "frame round-trips" p got
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Unix.close w;
  Alcotest.(check bool) "clean EOF at a frame boundary" true
    (Wire.read_frame r = None);
  Unix.close r;
  (* EOF mid-frame is a protocol error, not a clean close. *)
  let r, w = Unix.pipe () in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 10l;
  ignore (Unix.write w header 0 4);
  ignore (Unix.write_substring w "abc" 0 3);
  Unix.close w;
  Alcotest.(check bool) "EOF mid-frame rejected" true
    (try
       ignore (Wire.read_frame r);
       false
     with Failure _ -> true);
  Unix.close r;
  (* Oversized sends refused before any bytes hit the wire. *)
  let r, w = Unix.pipe () in
  Alcotest.(check bool) "oversized frame refused" true
    (try
       Wire.write_frame w (String.make (Wire.max_frame + 1) 'a');
       false
     with Invalid_argument _ -> true);
  Unix.close r;
  Unix.close w

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

let test_wire_decoder_byte_at_a_time () =
  let payloads = [ "PING"; ""; "STATS"; String.make 300 'y' ] in
  let stream =
    Bytes.concat Bytes.empty (List.map encode payloads)
  in
  let d = Wire.decoder () in
  let got = ref [] in
  Bytes.iteri
    (fun i _ ->
      Wire.feed d stream i 1;
      match Wire.next d with
      | Some p -> got := p :: !got
      | None -> ())
    stream;
  Alcotest.(check (list string)) "frames pop in order" payloads
    (List.rev !got);
  (* A header declaring an oversized frame fails eagerly, before the
     body arrives. *)
  let d = Wire.decoder () in
  let bad = Bytes.create 4 in
  Bytes.set_int32_be bad 0 (Int32.of_int (Wire.max_frame + 1));
  Alcotest.(check bool) "oversized header rejected at feed" true
    (try
       for i = 0 to 3 do
         Wire.feed d bad i 1
       done;
       false
     with Failure _ -> true)

let test_wire_requests () =
  let reqs =
    [
      Wire.Ping;
      Wire.Epoch;
      Wire.Dist (0, 5);
      Wire.Path (3, 4);
      Wire.Hop (2, 9);
      Wire.Stats;
      Wire.Event "move 1 0.5 0.25";
      Wire.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Wire.parse_request (Wire.render_request r) with
      | Ok r' ->
          Alcotest.(check bool)
            ("round-trips: " ^ Wire.render_request r)
            true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  List.iter
    (fun junk ->
      Alcotest.(check bool) ("rejected: " ^ junk) true
        (match Wire.parse_request junk with Error _ -> true | Ok _ -> false))
    [ ""; "NOPE"; "DIST 1"; "DIST a b"; "HOP 3"; "PING EXTRA" ]

(* ---- epoch clock ------------------------------------------------------ *)

let test_clock () =
  let t = ref 100.0 in
  let now () = !t in
  let c = Clock.create ~now ~period:0.5 () in
  Alcotest.(check bool) "due at start" true (Clock.due c);
  Clock.advance c;
  Alcotest.(check bool) "not due after advance" false (Clock.due c);
  Alcotest.(check bool) "positive wait" true (Clock.seconds_until c > 0.0);
  t := !t +. 0.6;
  Alcotest.(check bool) "due after one period" true (Clock.due c);
  Clock.advance c;
  (* A long stall must not bank a backlog of instantly-due ticks. *)
  t := !t +. 10.0;
  Alcotest.(check bool) "due after stall" true (Clock.due c);
  Clock.advance c;
  Alcotest.(check bool) "stall re-anchors, no backlog" false (Clock.due c);
  let u = Clock.create ~now ~period:0.0 () in
  Clock.advance u;
  Alcotest.(check bool) "period 0 is always due" true (Clock.due u);
  Alcotest.(check bool) "negative period rejected" true
    (try
       ignore (Clock.create ~now ~period:(-1.0) ());
       false
     with Invalid_argument _ -> true)

(* ---- tail ingest ------------------------------------------------------ *)

let append path s =
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc s;
  close_out oc

(* 3 nodes on a line, alpha 0.9, edges {0,1} and {1,2}; 2 advertised
   batches. *)
let trace_prefix =
  "ubg-churn v1\n3 2 0.9\n0 0\n0.5 0\n1 0\n2\n0 1\n1 2\n2\n"

let test_tail_partial_batches () =
  let path = temp_file ".churn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc trace_prefix;
      close_out oc;
      let t = Ingest.Tail.open_ path in
      Fun.protect
        ~finally:(fun () -> Ingest.Tail.close t)
        (fun () ->
          Alcotest.(check int) "dim" 2 (Ingest.Tail.dim t);
          Alcotest.(check int) "advertised tail" 2
            (Ingest.Tail.advertised_batches t);
          Alcotest.(check int) "initial population" 3
            (Ubg.Model.n (Ingest.Tail.initial t));
          Alcotest.(check bool) "empty tail" true (Ingest.Tail.poll t = None);
          append path "batch 2\nleave 2\n";
          Alcotest.(check bool) "incomplete batch held back" true
            (Ingest.Tail.poll t = None);
          append path "move 0 0.25 0.1";
          Alcotest.(check bool) "unterminated line held back" true
            (Ingest.Tail.poll t = None);
          append path "\n";
          (match Ingest.Tail.poll t with
          | Some b -> Alcotest.(check int) "batch size" 2 (Array.length b)
          | None -> Alcotest.fail "complete batch not delivered");
          Alcotest.(check int) "batches_read" 1 (Ingest.Tail.batches_read t);
          Alcotest.(check int) "events_read" 2 (Ingest.Tail.events_read t);
          append path "batch 1\njoin 0.9 0.9\n";
          (match Ingest.Tail.poll t with
          | Some b -> Alcotest.(check int) "second batch" 1 (Array.length b)
          | None -> Alcotest.fail "second batch not delivered");
          Alcotest.(check bool) "tail drained" true
            (Ingest.Tail.poll t = None)))

let test_parse_event () =
  Alcotest.(check bool) "join parses" true
    (match Ingest.parse_event ~dim:2 "join 0.5 0.25" with
    | Ok (Ubg.Churn.Join _) -> true
    | _ -> false);
  Alcotest.(check bool) "leave parses" true
    (match Ingest.parse_event ~dim:2 "leave 4" with
    | Ok (Ubg.Churn.Leave 4) -> true
    | _ -> false);
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejected: " ^ bad) true
        (match Ingest.parse_event ~dim:2 bad with
        | Error _ -> true
        | Ok _ -> false))
    [ ""; "explode 3"; "move 0 1"; "join 0.5"; "leave x"; "move x 0 0" ]

(* ---- checkpoint module ------------------------------------------------ *)

let canonical_csr c =
  List.sort compare
    (List.map
       (fun (e : Wgraph.edge) -> (min e.u e.v, max e.u e.v, e.w))
       (Wgraph.edges (Graph.Csr.to_wgraph c)))

let daemon_params = Topo.Params.of_epsilon ~eps:0.5 ~alpha:0.9 ~dim:2

let make_trace ~seed ~epochs =
  let model = connected_model ~seed ~n:24 ~dim:2 ~alpha:0.9 in
  let trace =
    Ubg.Churn.generate ~seed ~epochs ~batch_max:4
      (Ubg.Churn.default_dynamics ~side:4.0)
      model
  in
  (model, trace)

(* The file-level resume invariant: run half the history, checkpoint to
   disk, thaw a fresh engine from the file, finish — the final state
   must match an uninterrupted replay edge for edge. *)
let test_checkpoint_resume_matches_full_run () =
  let model, trace = make_trace ~seed:5 ~epochs:6 in
  let batches = trace.Ubg.Churn.batches in
  let a = Engine.create ~params:daemon_params model in
  Array.iter (fun b -> ignore (Engine.apply_batch a b)) batches;
  let b = Engine.create ~params:daemon_params model in
  let events = ref 0 in
  Array.iteri
    (fun i batch ->
      if i < 3 then begin
        ignore (Engine.apply_batch b batch);
        events := !events + Array.length batch
      end)
    batches;
  let path = temp_file ".ck" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Daemon.Checkpoint.save ~path ~events:!events b;
      let ck = Daemon.Checkpoint.load path in
      Alcotest.(check (pair int int))
        "cursor" (3, !events)
        (Daemon.Checkpoint.cursor ck);
      let c = Daemon.Checkpoint.restore ~params:daemon_params ck in
      Array.iteri
        (fun i batch -> if i >= 3 then ignore (Engine.apply_batch c batch))
        batches;
      let sa = Engine.latest a and sc = Engine.latest c in
      Alcotest.(check int) "epoch" sa.Engine.snap_epoch sc.Engine.snap_epoch;
      Alcotest.(check bool) "spanner identical" true
        (canonical_csr sa.Engine.snap_spanner
        = canonical_csr sc.Engine.snap_spanner);
      Alcotest.(check bool) "ubg identical" true
        (canonical_csr sa.Engine.snap_ubg = canonical_csr sc.Engine.snap_ubg);
      Alcotest.(check (float 0.0)) "stretch identical" sa.Engine.snap_stretch
        sc.Engine.snap_stretch)

(* ---- end-to-end daemon ------------------------------------------------ *)

let connect_with_retry ?(deadline = 30.0) sock =
  let limit = Unix.gettimeofday () +. deadline in
  let rec go () =
    try Client.connect sock
    with Unix.Unix_error _ when Unix.gettimeofday () < limit ->
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let wait_for_epoch ?(deadline = 30.0) client target =
  let limit = Unix.gettimeofday () +. deadline in
  let rec go () =
    let ep = Client.ping client in
    if ep >= target then ep
    else if Unix.gettimeofday () < limit then begin
      Unix.sleepf 0.02;
      go ()
    end
    else ep
  in
  go ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Serve a recorded trace, wait for the daemon to catch the tail, and
   check every answer against an oracle built locally over the same
   replay — the published snapshot is deterministic, so the daemon's
   DIST/PATH/HOP must agree exactly. *)
let test_daemon_serves_published_oracle () =
  let epochs = 5 in
  let model, trace = make_trace ~seed:9 ~epochs in
  let tracef = temp_file ".churn" in
  let sock = sock_path "e2e" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove tracef;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      Io.save_trace tracef trace;
      let cfg = Runtime.default ~socket:sock ~source:(Runtime.Tail tracef) in
      let h = Runtime.start cfg in
      let c = connect_with_retry sock in
      let synced = wait_for_epoch c epochs in
      Alcotest.(check int) "synced to tail" epochs synced;
      (* Local replica: same replay, same oracle parameters — attached
         BEFORE the replay so it follows the same scratch-then-repair
         chain the daemon's async service walks (a scratch build at
         the tail could legitimately anchor clusters differently). *)
      let e = Engine.create ~params:daemon_params model in
      let replica = Oracle.Service.attach ~eps:0.5 ~label:"replica" e in
      Array.iter
        (fun b -> ignore (Engine.apply_batch e b))
        trace.Ubg.Churn.batches;
      let entry = Oracle.Service.current replica in
      let qws = Oracle.Dist.create_query_ws () in
      let n = Graph.Csr.n_vertices entry.Oracle.Service.csr in
      let pairs = ref 0 in
      for u = 0 to min (n - 1) 7 do
        for v = u + 1 to min (n - 1) 7 do
          incr pairs;
          let ep, d = Client.dist c u v in
          Alcotest.(check int) "dist epoch stamp" epochs ep;
          let local = Oracle.Dist.distance_estimate entry.Oracle.Service.oracle qws u v in
          Alcotest.(check bool)
            (Printf.sprintf "dist %d-%d matches local oracle" u v)
            true
            (d = local || (Float.is_nan d && Float.is_nan local));
          let _, remote_path = Client.path c u v in
          let local_path =
            Oracle.Dist.spanner_path entry.Oracle.Service.oracle qws ~src:u
              ~dst:v
          in
          Alcotest.(check bool)
            (Printf.sprintf "path %d-%d matches local oracle" u v)
            true (remote_path = local_path);
          let _, remote_hop = Client.hop c u ~dst:v in
          Alcotest.(check int)
            (Printf.sprintf "hop %d-%d matches local oracle" u v)
            (Oracle.Dist.next_hop entry.Oracle.Service.oracle qws u ~dst:v)
            remote_hop
        done
      done;
      Alcotest.(check bool) "sampled some pairs" true (!pairs > 0);
      (* Out-of-range vertices answer ERR, not a crash. *)
      Alcotest.(check bool) "range check" true
        (try
           ignore (Client.dist c 0 (n + 100));
           false
         with Failure _ -> true);
      let sep, rows = Client.stats c in
      Alcotest.(check int) "stats epoch stamp" epochs sep;
      Alcotest.(check bool) "stats report the epoch gauge" true
        (List.mem_assoc "engine.epoch" rows);
      (* The last epoch's split: both layers timed, neither negative. *)
      List.iter
        (fun key ->
          match Option.bind (List.assoc_opt key rows) float_of_string_opt with
          | Some ms ->
              Alcotest.(check bool) (key ^ " is a duration") true (ms >= 0.0)
          | None -> Alcotest.failf "STATS lacks a numeric %s" key)
        [ "engine.repair_ms"; "engine.certify_ms" ];
      let final = Client.shutdown c in
      Alcotest.(check int) "final epoch" epochs final;
      Client.close c;
      let s = Runtime.join h in
      Alcotest.(check int) "epochs applied" epochs s.Runtime.epochs_applied;
      Alcotest.(check int) "events applied"
        (Ubg.Churn.n_events trace)
        s.Runtime.events_applied)

(* A static daemon counts the DIST answers its search ran (near) and
   read off its tables (far) in STATS. Oracle eps = 4 over a relaxed
   spanner at n = 300 makes a fifth of random pairs far; u = v pairs
   count as neither. The expected counts are a local oracle's over the
   same snapshot and pairs, read off its workspace, and are checked on
   their own: the model is connected, so each u <> v pair counts once;
   a table answer is L, above the near bound; and an answer other than
   the exact distance came off the tables. *)
let test_static_daemon_counts_near_and_far () =
  let model = connected_model ~seed:4 ~n:300 ~dim:2 ~alpha:0.8 in
  let csr =
    Graph.Csr.of_wgraph
      (Topo.Relaxed_greedy.build_eps ~eps:0.5 model).Topo.Relaxed_greedy.spanner
  in
  let oracle_eps = 4.0 in
  let local = Oracle.Dist.build ~eps:oracle_eps csr in
  let qws = Oracle.Dist.create_query_ws () in
  let st = Random.State.make [| 4; 0xd157 |] in
  let pairs =
    Array.init 60 (fun i ->
        let u = Random.State.int st 300 in
        (u, if i mod 10 = 0 then u else Random.State.int st 300))
  in
  let answers =
    Array.map (fun (u, v) -> Oracle.Dist.distance_estimate local qws u v) pairs
  in
  let near = Oracle.Dist.near_answers qws in
  let far = Oracle.Dist.far_answers qws in
  let nb = (Oracle.Dist.stats local).Oracle.Dist.near_bound in
  let count p =
    let c = ref 0 in
    Array.iteri (fun i (u, v) -> if u <> v && p i u v then incr c) pairs;
    !c
  in
  let distinct = count (fun _ _ _ -> true) in
  let above = count (fun i _ _ -> answers.(i) > nb) in
  let inexact =
    count (fun i u v ->
        Int64.bits_of_float answers.(i)
        <> Int64.bits_of_float (Graph.Dijkstra.distance_csr csr u v))
  in
  Alcotest.(check int) "each u <> v pair counted once" distinct (near + far);
  Alcotest.(check bool) "far answers lie above the near bound" true
    (far <= above);
  Alcotest.(check bool) "inexact answers are far" true (inexact <= far);
  let sock = sock_path "counts" in
  let stop = Atomic.make false in
  let service = Oracle.Service.of_csr ~eps:oracle_eps csr in
  let server = Daemon.Server.create ~socket:sock ~service ~stop () in
  let d = Domain.spawn (fun () -> Daemon.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let c = connect_with_retry sock in
      Array.iter (fun (u, v) -> ignore (Client.dist c u v)) pairs;
      let _, rows = Client.stats c in
      Client.close c;
      let count key =
        match Option.bind (List.assoc_opt key rows) int_of_string_opt with
        | Some k -> k
        | None -> Alcotest.failf "STATS lacks a count %s" key
      in
      Alcotest.(check bool) "both kinds sampled" true (near > 0 && far > 0);
      Alcotest.(check int) "near answers" near (count "oracle.near_answers");
      Alcotest.(check int) "far answers" far (count "oracle.far_answers"))

(* The acceptance criterion: a daemon restarted from its checkpoint
   finishes with a final checkpoint byte-identical to a run that never
   stopped. *)
let test_daemon_restart_is_bit_identical () =
  let epochs = 6 in
  let model, trace = make_trace ~seed:13 ~epochs in
  let tracef = temp_file ".churn" in
  let cka = temp_file ".ck" in
  let ckb = temp_file ".ck" in
  let sock = sock_path "resume" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ tracef; cka; ckb; cka ^ ".tmp"; ckb ^ ".tmp"; sock ])
    (fun () ->
      Io.save_trace tracef trace;
      (* temp_file created them empty; an existing-but-empty checkpoint
         file would be (rightly) rejected at resume. *)
      Sys.remove cka;
      Sys.remove ckb;
      let run ~checkpoint =
        let cfg = Runtime.default ~socket:sock ~source:(Runtime.Tail tracef) in
        let cfg =
          { cfg with Runtime.checkpoint = Some checkpoint; quit_at_tail = true }
        in
        Runtime.join (Runtime.start cfg)
      in
      (* Uninterrupted reference run. *)
      let sa = run ~checkpoint:cka in
      Alcotest.(check int) "run A final epoch" epochs sa.Runtime.final_epoch;
      (* "Interrupted" run: seed the checkpoint file with epoch 3 state
         (what the SIGTERM path writes), then restart the daemon on it. *)
      let b = Engine.create ~params:daemon_params model in
      let events = ref 0 in
      Array.iteri
        (fun i batch ->
          if i < 3 then begin
            ignore (Engine.apply_batch b batch);
            events := !events + Array.length batch
          end)
        trace.Ubg.Churn.batches;
      Daemon.Checkpoint.save ~path:ckb ~events:!events b;
      let sb = run ~checkpoint:ckb in
      Alcotest.(check int) "run B final epoch" epochs sb.Runtime.final_epoch;
      Alcotest.(check int) "run B resumed mid-history" (epochs - 3)
        sb.Runtime.epochs_applied;
      Alcotest.(check string) "final checkpoints byte-identical"
        (read_file cka) (read_file ckb))

(* Socket-ingest mode: no trace file; events arrive as EV frames and
   are batched per clock tick. *)
let test_daemon_socket_ingest () =
  let model = connected_model ~seed:21 ~n:12 ~dim:2 ~alpha:0.9 in
  let inst = temp_file ".ubg" in
  let sock = sock_path "ingest" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove inst;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      Io.save_instance inst model;
      let cfg =
        Runtime.default ~socket:sock ~source:(Runtime.Socket_ingest inst)
      in
      let h = Runtime.start cfg in
      let c = connect_with_retry sock in
      Alcotest.(check int) "starts at epoch 0" 0 (Client.ping c);
      Client.event c "move 0 0.9 0.9";
      Client.event c "join 0.1 0.9";
      let ep = wait_for_epoch c 1 in
      Alcotest.(check bool) "epoch advanced on pushed events" true (ep >= 1);
      Alcotest.(check bool) "bad event line answers ERR" true
        (try
           Client.event c "explode 3";
           false
         with Failure _ -> true);
      ignore (Client.shutdown c);
      Client.close c;
      let s = Runtime.join h in
      Alcotest.(check int) "both events applied" 2 s.Runtime.events_applied)

(* Misbehaving clients must not take down the serving plane: a peer
   that disconnects with responses queued used to SIGPIPE the whole
   process, and a protocol violation is answered with an ERR frame
   before the drop.  A second daemon must refuse to steal a live
   socket, but a stale socket file is reclaimed. *)
let test_daemon_survives_bad_clients () =
  let model = connected_model ~seed:33 ~n:10 ~dim:2 ~alpha:0.9 in
  let inst = temp_file ".ubg" in
  let sock = sock_path "rude" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove inst;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      Io.save_instance inst model;
      let cfg =
        Runtime.default ~socket:sock ~source:(Runtime.Socket_ingest inst)
      in
      let h = Runtime.start cfg in
      let c = connect_with_retry sock in
      ignore (Client.ping c);
      (* Send a request and slam the connection shut without reading the
         reply: the server's write must surface EPIPE, not SIGPIPE. *)
      for _ = 1 to 5 do
        let rude = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect rude (Unix.ADDR_UNIX sock);
        Wire.write_frame rude "STATS";
        Unix.close rude
      done;
      (* Protocol violation: an oversized header is answered with ERR,
         then the connection is dropped. *)
      let viol = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect viol (Unix.ADDR_UNIX sock);
      let bad = Bytes.create 4 in
      Bytes.set_int32_be bad 0 (Int32.of_int (Wire.max_frame + 1));
      ignore (Unix.write viol bad 0 4);
      (match Wire.read_frame viol with
      | Some s ->
          Alcotest.(check bool) "violation answered with ERR" true
            (String.length s >= 3 && String.sub s 0 3 = "ERR")
      | None -> Alcotest.fail "dropped without an ERR frame");
      Alcotest.(check bool) "connection dropped after violation" true
        (Wire.read_frame viol = None);
      Unix.close viol;
      Alcotest.(check bool) "daemon survives rude clients" true
        (Client.ping c >= 0);
      (* A second daemon must fail loudly, not steal the live socket. *)
      Alcotest.(check bool) "live socket not stolen" true
        (try
           ignore (Runtime.join (Runtime.start cfg));
           false
         with Failure _ -> true);
      Alcotest.(check bool) "first daemon still reachable" true
        (Client.ping c >= 0);
      ignore (Client.shutdown c);
      Client.close c;
      ignore (Runtime.join h);
      (* A stale socket file (daemon died without unlinking) refuses
         connections and is reclaimed by the next daemon. *)
      let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind stale (Unix.ADDR_UNIX sock);
      Unix.close stale;
      Alcotest.(check bool) "stale socket left behind" true
        (Sys.file_exists sock);
      let h2 = Runtime.start cfg in
      let c2 = connect_with_retry sock in
      Alcotest.(check bool) "stale socket reclaimed" true (Client.ping c2 >= 0);
      ignore (Client.shutdown c2);
      Client.close c2;
      ignore (Runtime.join h2))

let () =
  Alcotest.run "daemon"
    [
      ( "wire",
        [
          Alcotest.test_case "frames round-trip" `Quick test_wire_frames;
          Alcotest.test_case "decoder: byte at a time" `Quick
            test_wire_decoder_byte_at_a_time;
          Alcotest.test_case "request grammar" `Quick test_wire_requests;
        ] );
      ( "clock",
        [ Alcotest.test_case "pacing and re-anchoring" `Quick test_clock ] );
      ( "ingest",
        [
          Alcotest.test_case "tail holds back partial batches" `Quick
            test_tail_partial_batches;
          Alcotest.test_case "event grammar" `Quick test_parse_event;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "file-level resume matches full run" `Quick
            test_checkpoint_resume_matches_full_run;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "serves the published oracle" `Quick
            test_daemon_serves_published_oracle;
          Alcotest.test_case "static daemon counts near and far answers"
            `Quick test_static_daemon_counts_near_and_far;
          Alcotest.test_case "restart resumes bit-identically" `Quick
            test_daemon_restart_is_bit_identical;
          Alcotest.test_case "socket ingest" `Quick test_daemon_socket_ingest;
          Alcotest.test_case "survives bad clients" `Quick
            test_daemon_survives_bad_clients;
        ] );
    ]
