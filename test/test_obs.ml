module Pool = Parallel.Pool
open Test_helpers

(* ------------------------------------------------------------------ *)
(* Harness: deterministic clock, scoped tracing                        *)
(* ------------------------------------------------------------------ *)

(* A counter clock: every read ticks by 1. Span timestamps become exact
   integers, so nesting assertions need no tolerance. *)
let with_counter_clock f =
  let t = ref 0.0 in
  Obs.Control.set_clock (fun () ->
      t := !t +. 1.0;
      !t);
  Fun.protect ~finally:(fun () -> Obs.Control.set_clock Unix.gettimeofday) f

let with_tracing f =
  let prev = Obs.Trace.enabled () in
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled prev;
      Obs.Trace.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Span nesting well-formedness                                        *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  with_counter_clock @@ fun () ->
  let r =
    Obs.Trace.span ~cat:"t" "outer" (fun () ->
        let a =
          Obs.Trace.span ~cat:"t"
            ~args:(fun () -> [ ("k", 1.0) ])
            "inner"
            (fun () -> 7)
        in
        let b = Obs.Trace.span ~cat:"t" "sibling" (fun () -> 1) in
        a + b)
  in
  Alcotest.(check int) "span returns f's result" 8 r;
  match Obs.Trace.events () with
  | [ inner; sibling; outer ] ->
      (* Spans record on close: children precede their parent. *)
      Alcotest.(check string) "inner first" "inner" inner.Obs.Trace.name;
      Alcotest.(check string) "outer last" "outer" outer.Obs.Trace.name;
      Alcotest.(check int) "outer depth" 0 outer.depth;
      Alcotest.(check int) "inner depth" 1 inner.depth;
      Alcotest.(check int) "sibling depth" 1 sibling.depth;
      Alcotest.(check bool) "args captured" true (inner.args = [ ("k", 1.0) ]);
      (* Counter clock ticks: outer [1,6], inner [2,3], sibling [4,5]. *)
      check_float "outer t0" 1.0 outer.t0;
      check_float "outer t1" 6.0 outer.t1;
      Alcotest.(check bool) "strictly nested" true
        (outer.t0 < inner.t0 && inner.t1 < sibling.t0
        && sibling.t1 < outer.t1)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_span_closed_on_exception () =
  with_tracing @@ fun () ->
  (try Obs.Trace.span "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Obs.Trace.n_events ());
  (* A stray end_ on an empty stack must be a no-op, not a crash. *)
  Obs.Trace.end_ ();
  Alcotest.(check int) "stray end_ ignored" 1 (Obs.Trace.n_events ())

(* ------------------------------------------------------------------ *)
(* Deterministic merged output across domain counts                    *)
(* ------------------------------------------------------------------ *)

let traced_structure ~domains model =
  Obs.Trace.clear ();
  Pool.set_domains domains;
  Fun.protect ~finally:Pool.clear_domains (fun () ->
      ignore (Topo.Relaxed_greedy.build_eps ~mode:`Local ~eps:0.5 model));
  Obs.Trace.structure ()

let test_structure_deterministic () =
  with_tracing @@ fun () ->
  let model = connected_model ~seed:11 ~n:90 ~dim:2 ~alpha:0.8 in
  let base = traced_structure ~domains:1 model in
  Alcotest.(check bool) "trace is non-empty" true (base <> []);
  (* The skeleton includes the per-bin spans with their edge counts;
     those args are part of what must not drift across pool sizes. *)
  Alcotest.(check bool) "bin spans carry args" true
    (List.exists (fun (cat, _, _, args) -> cat = "bin" && args <> []) base);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "structure identical at %d domains" d)
        true
        (traced_structure ~domains:d model = base))
    [ 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Metrics: counters, timers, histogram bucket edges                   *)
(* ------------------------------------------------------------------ *)

let test_counter_and_timer () =
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.reset c;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "counter merges" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "registration is idempotent" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "test.counter") = 5);
  with_counter_clock @@ fun () ->
  let tm = Obs.Metrics.timer "test.timer" in
  Obs.Metrics.reset tm;
  Alcotest.(check int) "time returns f's result" 42
    (Obs.Metrics.time tm (fun () -> 42));
  let total, calls = Obs.Metrics.timer_value tm in
  check_float "one tick elapsed" 1.0 total;
  Alcotest.(check int) "one call" 1 calls;
  (* A raising section records nothing. *)
  (try Obs.Metrics.time tm (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "raise records nothing" true
    (Obs.Metrics.timer_value tm = (total, calls))

let test_histogram_buckets () =
  let h = Obs.Metrics.histogram "test.hist" ~buckets:[| 1.0; 10.0; 100.0 |] in
  Obs.Metrics.reset h;
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 10.0; 99.9; 1000.0 ];
  (* le semantics: v lands in the first bucket with v <= edge, values
     exactly on an edge included below, everything past the last edge
     in the implicit overflow bucket. *)
  Alcotest.(check (array int))
    "counts per bucket" [| 2; 2; 1; 1 |]
    (Obs.Metrics.histogram_counts h);
  Alcotest.(check bool) "edges preserved" true
    (Obs.Metrics.bucket_edges h = [| 1.0; 10.0; 100.0 |]);
  let kv = Obs.Metrics.kv () in
  check_float "kv count" 6.0 (List.assoc "test.hist.count" kv);
  check_float "kv le_10" 2.0 (List.assoc "test.hist.le_10" kv);
  check_float "kv overflow" 1.0 (List.assoc "test.hist.le_inf" kv);
  Alcotest.check_raises "non-increasing edges rejected"
    (Invalid_argument "Obs.Metrics.histogram: bucket edges must increase")
    (fun () -> ignore (Obs.Metrics.histogram "test.bad" ~buckets:[| 2.0; 1.0 |]))

let test_kind_mismatch_rejected () =
  ignore (Obs.Metrics.counter "test.kind");
  (try
     ignore (Obs.Metrics.timer "test.kind");
     Alcotest.fail "re-registering under a different kind must raise"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Disabled mode: a span is one branch, no allocation                  *)
(* ------------------------------------------------------------------ *)

let test_disabled_no_alloc () =
  let prev = Obs.Trace.enabled () in
  Obs.Trace.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled prev) @@ fun () ->
  let c = Obs.Metrics.counter "test.noalloc" in
  let body () = Obs.Metrics.incr c in
  let iter () =
    for _ = 1 to 1000 do
      Obs.Trace.span "noalloc" body
    done
  in
  iter () (* warm up: shard, cell array growth *);
  let before = Gc.minor_words () in
  iter ();
  let delta = Gc.minor_words () -. before in
  (* Gc.minor_words itself boxes its float result (a few words); any
     per-iteration allocation would show as >= 2000 words here. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-span allocation when disabled (delta %.0f words)"
       delta)
    true (delta < 100.0)

(* ------------------------------------------------------------------ *)
(* Exporters: Chrome JSON round-trip and the nesting validator         *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "test_obs" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_chrome_roundtrip () =
  with_tracing @@ fun () ->
  with_counter_clock @@ fun () ->
  Obs.Trace.span ~cat:"t" "outer" (fun () ->
      Obs.Trace.span ~cat:"t"
        ~args:(fun () -> [ ("n", 3.0) ])
        "inner" ignore);
  let doc = Obs.Export.chrome_json () in
  (match Obs.Json.parse doc with
  | Error e -> Alcotest.failf "chrome_json does not parse: %s" e
  | Ok json ->
      let events =
        match Obs.Json.member "traceEvents" json with
        | Some (Obs.Json.Arr l) -> l
        | _ -> Alcotest.fail "traceEvents is not an array"
      in
      Alcotest.(check int) "one event per span" 2 (List.length events);
      let names =
        List.filter_map
          (fun ev ->
            match Obs.Json.member "name" ev with
            | Some (Obs.Json.Str s) -> Some s
            | _ -> None)
          events
      in
      Alcotest.(check bool) "names survive" true
        (List.sort compare names = [ "inner"; "outer" ]));
  with_temp_file @@ fun path ->
  Obs.Export.write_chrome path;
  match Obs.Export.validate_file path with
  | Ok s ->
      Alcotest.(check int) "validator sees both spans" 2 s.Obs.Export.n_events;
      Alcotest.(check int) "one lane" 1 s.n_lanes;
      Alcotest.(check int) "nesting depth 2" 2 s.max_depth
  | Error e -> Alcotest.failf "validate_file: %s" e

let test_validator_rejects_overlap () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  output_string oc
    {|{"traceEvents":[
        {"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":10},
        {"name":"b","ph":"X","pid":0,"tid":0,"ts":5,"dur":10}]}|};
  close_out oc;
  match Obs.Export.validate_file path with
  | Ok _ -> Alcotest.fail "overlapping spans must not validate"
  | Error msg ->
      Alcotest.(check bool) "error names the overlap" true
        (String.length msg > 0)

let test_export_kv_includes_span_aggregates () =
  with_tracing @@ fun () ->
  with_counter_clock @@ fun () ->
  Obs.Trace.span ~cat:"t" "agg" ignore;
  Obs.Trace.span ~cat:"t" "agg" ignore;
  let kv = Obs.Export.kv () in
  check_float "span call count aggregated" 2.0
    (List.assoc "span.t.agg.calls" kv);
  Alcotest.(check bool) "keys sorted" true
    (let keys = List.map fst kv in
     List.sort compare keys = keys)

(* ------------------------------------------------------------------ *)
(* Sharded timers: concurrent sections merge losslessly               *)
(* ------------------------------------------------------------------ *)

(* Each domain accumulates into its own shard; the merged call count
   must be exact no matter where the sections ran. *)
let test_timer_multidomain () =
  let tm = Obs.Metrics.timer "test.multidomain" in
  Obs.Metrics.reset tm;
  let n = 400 in
  Pool.set_domains 4;
  Fun.protect ~finally:Pool.clear_domains (fun () ->
      Pool.parallel_for n (fun _ -> Obs.Metrics.time tm ignore));
  let total, calls = Obs.Metrics.timer_value tm in
  Alcotest.(check int) "no lost sections across domains" n calls;
  Alcotest.(check bool) "total is non-negative" true (total >= 0.0);
  Obs.Metrics.reset tm;
  Alcotest.(check int) "reset zeroes every shard" 0
    (snd (Obs.Metrics.timer_value tm))

(* ------------------------------------------------------------------ *)
(* Json: the writer round-trips through the strict parser             *)
(* ------------------------------------------------------------------ *)

(* Strings stress the escapes: quotes, backslashes, every control
   character, and raw bytes >= 0x80 (not necessarily valid UTF-8). *)
let json_string_gen =
  QCheck.Gen.(
    string_size (int_bound 8)
      ~gen:
        (frequency
           [
             (2, oneofl [ '"'; '\\'; '/' ]);
             (2, char_range '\000' '\031');
             (2, char_range '\128' '\255');
             (4, printable);
           ]))

(* Any finite bit pattern, plus the forms random bits rarely hit:
   subnormals of either sign, integers at and beyond 1e15, and plain
   negatives. *)
let json_float_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun b ->
              let f = Int64.float_of_bits b in
              if Float.is_finite f then f else 0.0)
            ui64 );
        ( 1,
          map2
            (fun m neg ->
              let f = Float.ldexp (float_of_int m) (-1074) in
              if neg then -.f else f)
            (int_bound 1_000_000) bool );
        (1, map (fun k -> 1e15 +. float_of_int k) (int_bound 1_000_000_000));
        (1, float_range (-1000.0) 0.0);
      ])

let json_gen =
  let open Obs.Json in
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self depth ->
           let scalar =
             frequency
               [
                 (1, return Null);
                 (1, map (fun b -> Bool b) bool);
                 (3, map (fun f -> Num f) json_float_gen);
                 (3, map (fun s -> Str s) json_string_gen);
               ]
           in
           if depth = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 ( 1,
                   map (fun l -> Arr l)
                     (list_size (int_bound 4) (self (depth - 1))) );
                 ( 1,
                   map (fun l -> Obj l)
                     (list_size (int_bound 4)
                        (pair json_string_gen (self (depth - 1)))) );
               ]))

(* Structural equality with floats compared bit for bit, so a lost
   sign of zero or a last-digit rounding fails. *)
let rec json_same a b =
  let open Obs.Json in
  match (a, b) with
  | Num x, Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Arr l, Arr m -> List.equal json_same l m
  | Obj l, Obj m ->
      List.equal (fun (k, v) (k', v') -> k = k' && json_same v v') l m
  | _ -> a = b

let prop_json_roundtrip =
  qtest ~count:500 "parse (render v) = v"
    (QCheck.make ~print:Obs.Json.render json_gen)
    (fun v ->
      match Obs.Json.parse (Obs.Json.render v) with
      | Ok v' -> json_same v v'
      | Error _ -> false)

let test_json_nonfinite_null () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h renders as null" f)
        "null\n"
        (Obs.Json.render (Obs.Json.Num f)))
    [ nan; infinity; neg_infinity ]

let test_json_accepts () =
  let num src =
    match Obs.Json.parse src with
    | Ok (Obs.Json.Num f) -> f
    | Ok _ | Error _ -> Alcotest.failf "%S does not parse as a number" src
  in
  List.iter
    (fun (src, f) ->
      Alcotest.(check bool) src true
        (Int64.bits_of_float (num src) = Int64.bits_of_float f))
    [ ("0", 0.0); ("-0", -0.0); ("10", 10.0); ("-1.5e-3", -1.5e-3);
      ("2E+2", 200.0); ("0.25", 0.25) ];
  Alcotest.(check bool) "surrogate pair decodes to 4-byte UTF-8" true
    (Obs.Json.parse {|"\ud83d\ude00"|} = Ok (Obs.Json.Str "\xF0\x9F\x98\x80"))

let json_rejects =
  List.map
    (fun (label, src) ->
      Alcotest.test_case ("rejects " ^ label) `Quick (fun () ->
          match Obs.Json.parse src with
          | Ok _ -> Alcotest.failf "%S parsed" src
          | Error _ -> ()))
    [
      ("leading plus", "+1");
      ("leading dot", ".5");
      ("leading zero", "01");
      ("trailing dot", "1.");
      ("underscore in \\u escape", {|"\u00_1"|});
      ("lone high surrogate", {|"\ud83d"|});
      ("lone low surrogate", {|"\ude00"|});
      ("raw control character", "\"a\tb\"");
    ]

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span closes on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "structure deterministic across domains" `Quick
            test_structure_deterministic;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and timer" `Quick test_counter_and_timer;
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_buckets;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "multi-domain sections merge" `Quick
            test_timer_multidomain;
        ] );
      ( "cost",
        [
          Alcotest.test_case "disabled mode allocates nothing" `Quick
            test_disabled_no_alloc;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome JSON round-trip" `Quick
            test_chrome_roundtrip;
          Alcotest.test_case "validator rejects overlap" `Quick
            test_validator_rejects_overlap;
          Alcotest.test_case "kv span aggregates" `Quick
            test_export_kv_includes_span_aggregates;
        ] );
      ( "json",
        [
          prop_json_roundtrip;
          Alcotest.test_case "non-finite renders as null" `Quick
            test_json_nonfinite_null;
          Alcotest.test_case "accepts RFC 8259 forms" `Quick test_json_accepts;
        ]
        @ json_rejects );
    ]
