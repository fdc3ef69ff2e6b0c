module Pool = Parallel.Pool
module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra
open Test_helpers

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

(* Each test runs at several pool sizes: results must not depend on
   how many domains the work is spread over. *)
let sizes = [ 1; 2; 4 ]

let test_map_matches_array_map () =
  let a = Array.init 203 (fun i -> i) in
  let expected = Array.map (fun x -> (x * x) + 1) a in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "map, %d domains" d)
        expected
        (Pool.map ~domains:d (fun x -> (x * x) + 1) a))
    sizes;
  Alcotest.(check (array int)) "empty input" [||] (Pool.map (fun x -> x) [||])

let test_mapi_slot_order () =
  let a = Array.init 101 (fun i -> 1000 - i) in
  let expected = Array.mapi (fun i x -> (i, x)) a in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "mapi, %d domains" d)
        true
        (Pool.mapi ~domains:d (fun i x -> (i, x)) a = expected))
    sizes

let test_parallel_for_each_slot_once () =
  List.iter
    (fun d ->
      let n = 157 in
      let hits = Array.make n 0 in
      (* Slot i is owned by iteration i, so the unsynchronized writes
         are the sanctioned usage pattern. *)
      Pool.parallel_for ~domains:d n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "each slot once, %d domains" d)
        true
        (Array.for_all (fun h -> h = 1) hits))
    sizes

let test_map_reduce_non_commutative () =
  let a = Array.init 64 (fun i -> string_of_int i) in
  let expected = String.concat "," (Array.to_list a) in
  List.iter
    (fun d ->
      let got =
        Pool.map_reduce ~domains:d
          ~map:(fun s -> s)
          ~fold:(fun acc s -> if acc = "" then s else acc ^ "," ^ s)
          ~init:"" a
      in
      Alcotest.(check string)
        (Printf.sprintf "ordered fold, %d domains" d)
        expected got)
    sizes

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun d ->
      let raised =
        try
          Pool.parallel_for ~domains:d 100 (fun i ->
              if i = 37 then raise (Boom i));
          false
        with Boom 37 -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "Boom escapes, %d domains" d)
        true raised;
      (* The pool must stay usable after a failed job. *)
      Alcotest.(check (array int))
        (Printf.sprintf "pool alive after failure, %d domains" d)
        [| 0; 2; 4 |]
        (Pool.map ~domains:d (fun x -> 2 * x) [| 0; 1; 2 |]))
    sizes

let test_nested_maps () =
  (* Inner combinator calls run sequentially on the worker (the DLS
     flag), so nesting must neither deadlock nor corrupt results. *)
  List.iter
    (fun d ->
      let outer = Array.init 12 (fun i -> i) in
      let got =
        Pool.map ~domains:d
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map (fun j -> (i * 100) + j) (Array.init 9 Fun.id)))
          outer
      in
      let expected =
        Array.map (fun i -> (900 * i) + 36) outer
      in
      Alcotest.(check (array int))
        (Printf.sprintf "nested, %d domains" d)
        expected got)
    sizes

let test_set_and_clear_domains () =
  Pool.set_domains 3;
  Alcotest.(check int) "set_domains wins" 3 (Pool.size ());
  Alcotest.(check (array int))
    "work at size 3" [| 0; 1; 4; 9 |]
    (Pool.map (fun x -> x * x) [| 0; 1; 2; 3 |]);
  Pool.clear_domains ();
  Alcotest.check_raises "set_domains rejects 0"
    (Invalid_argument "Pool.set_domains: need n >= 1") (fun () ->
      Pool.set_domains 0)

let test_grain_controls () =
  let a = Array.init 173 (fun i -> i) in
  let expected = Array.map (fun x -> x * 3) a in
  (* Any grain — single-item chunks, odd sizes, one chunk for the whole
     range — must leave the output bit-identical. *)
  List.iter
    (fun g ->
      Alcotest.(check (array int))
        (Printf.sprintf "map at grain %d" g)
        expected
        (Pool.map ~domains:4 ~grain:g (fun x -> x * 3) a))
    [ 1; 7; 64; 10_000 ];
  Pool.set_grain 5;
  Fun.protect ~finally:Pool.clear_grain (fun () ->
      Alcotest.(check (array int))
        "sticky grain" expected
        (Pool.map ~domains:3 (fun x -> x * 3) a));
  Alcotest.(check (array int))
    "after clear_grain" expected
    (Pool.map ~domains:3 (fun x -> x * 3) a);
  Alcotest.check_raises "set_grain rejects 0"
    (Invalid_argument "Pool.set_grain: need grain >= 1") (fun () ->
      Pool.set_grain 0)

let test_exception_propagates_at_grain_one () =
  (* Grain 1 maximizes chunk count — the failure path must still claim
     and drain every chunk exactly once. *)
  List.iter
    (fun d ->
      let raised =
        try
          Pool.parallel_for ~domains:d ~grain:1 64 (fun i ->
              if i = 13 then raise (Boom i));
          false
        with Boom 13 -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "Boom escapes at grain 1, %d domains" d)
        true raised)
    sizes

let test_eager_wake_same_results () =
  (* Eager wake changes only the execution schedule (all workers are
     woken per job instead of the spare-core budget); outputs must not
     move. *)
  Pool.set_eager_wake true;
  Fun.protect
    ~finally:(fun () -> Pool.set_eager_wake false)
    (fun () ->
      let a = Array.init 211 (fun i -> i) in
      Alcotest.(check (array int))
        "eager wake map" (Array.map (fun x -> x - 7) a)
        (Pool.map ~domains:4 (fun x -> x - 7) a))

(* ------------------------------------------------------------------ *)
(* Workspace Dijkstra variants agree with the plain entry points       *)
(* ------------------------------------------------------------------ *)

let sorted_pairs l = List.sort compare l

(* Inside the bound, every bounded label must equal the unbounded
   plain-array search's bit for bit: the bounded core relaxes in the
   same order up to the point where it stops. *)
let prop_workspace_agrees =
  qtest ~count:40 "workspace: _ws searches bit-identical to plain ones"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 50 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 70) in
      let c = Csr.of_wgraph g in
      (* One workspace reused across every query: staleness from the
         previous search must never leak into the next. *)
      let ws = Dijkstra.create_workspace () in
      let ok = ref true in
      for _ = 1 to 20 do
        let u = Random.State.int st n and v = Random.State.int st n in
        let bound = Random.State.float st 3.0 in
        let dist = Dijkstra.distances g u in
        if Dijkstra.distances_csr c u <> dist then ok := false;
        let expected_ball =
          List.filter
            (fun (_, d) -> d <= bound)
            (List.init n (fun x -> (x, dist.(x))))
        in
        List.iter
          (fun ball -> if sorted_pairs ball <> expected_ball then ok := false)
          [
            Dijkstra.within g u ~bound;
            Dijkstra.within_ws ws g u ~bound;
            Dijkstra.within_csr c u ~bound;
            Dijkstra.within_csr_ws ws c u ~bound;
          ];
        List.iter
          (fun d ->
            if dist.(v) <= bound then (if d <> dist.(v) then ok := false)
            else if not (d > bound) then ok := false)
          [
            Dijkstra.distance_upto g u v ~bound;
            Dijkstra.distance_upto_ws ws g u v ~bound;
            Dijkstra.distance_upto_csr c u v ~bound;
            Dijkstra.distance_upto_csr_ws ws c u v ~bound;
          ]
      done;
      !ok)

(* The oracle's route reader walks a tree left in [domain_workspace ()]
   while other searches run on the same domain: the plain entry points
   must never touch that workspace. *)
let prop_plain_entries_keep_domain_tree =
  qtest ~count:40 "workspace: plain searches keep the domain tree" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 50 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 70) in
      let c = Csr.of_wgraph g in
      let ws = Dijkstra.domain_workspace () in
      let src = Random.State.int st n in
      Dijkstra.settle_parents_csr_ws ws c src ~bound:infinity;
      let parents () = Array.init n (Dijkstra.ws_parent ws) in
      let before = parents () in
      let u = Random.State.int st n and v = Random.State.int st n in
      ignore (Dijkstra.distance_csr c u v);
      ignore (Dijkstra.within_csr c u ~bound:1.0);
      ignore (Dijkstra.hop_bounded_distance_csr c u v ~max_hops:3 ~bound:2.0);
      ignore (Dijkstra.distances_to_csr c u ~targets:[| v; u; v |]);
      ignore (Dijkstra.distance g u v);
      ignore (Dijkstra.within g u ~bound:1.0);
      ignore (Dijkstra.path g u v);
      (* Every vertex is reachable (the graph is connected), so the
         tree spans it: a clobbered workspace would read -1 below. *)
      parents () = before
      && Array.for_all
           (fun x -> x = src || before.(x) >= 0)
           (Array.init n Fun.id))

let prop_within_into_agrees =
  qtest ~count:40 "workspace: within_csr_into fills what within_csr returns"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 50 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 70) in
      let c = Csr.of_wgraph g in
      let ws = Dijkstra.create_workspace () in
      let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
      let ok = ref true in
      for _ = 1 to 20 do
        let u = Random.State.int st n in
        let bound = Random.State.float st 3.0 in
        let k = Dijkstra.within_csr_into ws c u ~bound ~out_v ~out_d in
        let into = List.init k (fun i -> (out_v.(i), out_d.(i))) in
        (* Exact match including order: both walk the settle trace. *)
        if into <> Dijkstra.within_csr_ws ws c u ~bound then ok := false;
        if sorted_pairs into <> sorted_pairs (Dijkstra.within_csr c u ~bound)
        then ok := false
      done;
      (* Undersized buffers are rejected, never written past the end
         (the source alone already needs one slot). *)
      (try
         ignore
           (Dijkstra.within_csr_into ws c 0 ~bound:1.0 ~out_v:[||] ~out_d:[||]);
         ok := false
       with Invalid_argument _ -> ());
      !ok)

(* The forest entry on random sources and bounds: labels are the
   minimum over sources of the unbounded search, bit for bit; the
   settled set is exactly the vertices within the bound, in
   nondecreasing-label order; and every parent chain ends at a source
   after edges that sum, from that source, to the label. *)
let prop_multi_forest =
  qtest ~count:40
    "workspace: within_multi_csr_into grows the nearest-source forest" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 50 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 70) in
      let c = Csr.of_wgraph g in
      let ws = Dijkstra.create_workspace () in
      let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
      let out_p = Array.make n 0 in
      let weight u v =
        let w = ref infinity in
        Csr.iter_neighbors c u (fun x wx -> if x = v then w := Float.min !w wx);
        !w
      in
      let ok = ref true in
      for _ = 1 to 10 do
        (* Repeats allowed; sometimes no source at all. *)
        let srcs =
          Array.init (Random.State.int st 5) (fun _ -> Random.State.int st n)
        in
        let bound = Random.State.float st 3.0 in
        let best = Array.make n infinity in
        Array.iter
          (fun s ->
            Array.iteri
              (fun v d -> if d < best.(v) then best.(v) <- d)
              (Dijkstra.distances_csr c s))
          srcs;
        let k =
          Dijkstra.within_multi_csr_into ws c ~srcs ~bound ~out_v ~out_d ~out_p
        in
        let within =
          Array.fold_left (fun m d -> if d <= bound then m + 1 else m) 0 best
        in
        if k <> within then ok := false;
        let label = Array.make n nan and parent = Array.make n (-2) in
        for i = 0 to k - 1 do
          label.(out_v.(i)) <- out_d.(i);
          parent.(out_v.(i)) <- out_p.(i);
          if i > 0 && out_d.(i) < out_d.(i - 1) then ok := false
        done;
        for v = 0 to n - 1 do
          if best.(v) <= bound then begin
            if not (Int64.equal (Int64.bits_of_float label.(v))
                      (Int64.bits_of_float best.(v)))
            then ok := false;
            (* Walk up to the root, then sum the weights back down. *)
            let rec chain x acc steps =
              if steps > n then None
              else
                match parent.(x) with
                | -1 -> Some (x, acc)
                | p when p >= 0 -> chain p (x :: acc) (steps + 1)
                | _ -> None
            in
            match chain v [] 0 with
            | None -> ok := false
            | Some (root, down) ->
                let sum, _ =
                  List.fold_left
                    (fun (sum, prev) x -> (sum +. weight prev x, x))
                    (0.0, root) down
                in
                if (not (Array.mem root srcs)) || sum <> label.(v) then
                  ok := false
          end
          else if not (Float.is_nan label.(v)) then ok := false
        done
      done;
      (* An out-of-range source and each short buffer are rejected. *)
      let rejects f =
        try
          ignore (f ());
          false
        with Invalid_argument _ -> true
      in
      let short = Array.make (n - 1) 0 and short_d = Array.make (n - 1) 0.0 in
      let multi ?(out_v = out_v) ?(out_d = out_d) ?(out_p = out_p) srcs () =
        Dijkstra.within_multi_csr_into ws c ~srcs ~bound:1.0 ~out_v ~out_d
          ~out_p
      in
      !ok
      && rejects (multi [| n |])
      && rejects (multi [| -1 |])
      && rejects (multi ~out_v:short [| 0 |])
      && rejects (multi ~out_d:short_d [| 0 |])
      && rejects (multi ~out_p:short [| 0 |]))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel build bit-identical to sequential             *)
(* ------------------------------------------------------------------ *)

let edge_set g =
  List.sort compare
    (List.map
       (fun (e : Wgraph.edge) -> (min e.u e.v, max e.u e.v, e.w))
       (Wgraph.edges g))

let stats_tuple (s : Topo.Relaxed_greedy.phase_stats) =
  ( s.phase, s.n_bin_edges, s.n_covered, s.n_candidates, s.n_query, s.n_added,
    s.n_removed )

let build_fingerprint ?metric ~domains model =
  Pool.set_domains domains;
  Fun.protect ~finally:Pool.clear_domains (fun () ->
      let r = Topo.Relaxed_greedy.build_eps ?metric ~eps:0.5 model in
      ( edge_set r.Topo.Relaxed_greedy.spanner,
        List.map stats_tuple r.Topo.Relaxed_greedy.stats ))

(* The metric picks the region policy: Euclidean weights run each phase
   on its grid region, Energy weights on every vertex. *)
let prop_build_deterministic metric name =
  qtest ~count:8 name seed_arb (fun seed ->
      let model = connected_model ~seed ~n:90 ~dim:2 ~alpha:0.8 in
      let base = build_fingerprint ~metric ~domains:1 model in
      build_fingerprint ~metric ~domains:2 model = base
      && build_fingerprint ~metric ~domains:4 model = base)

let with_grain g thunk =
  match g with
  | None -> thunk ()
  | Some g ->
      Pool.set_grain g;
      Fun.protect ~finally:Pool.clear_grain thunk

(* The full grid the scaling work promises: spanner edges and phase
   stats identical for every (grain, domains) combination — one-item
   chunks, the adaptive default, and a single whole-range chunk. *)
let prop_build_deterministic_grain_grid =
  qtest ~count:4 "build bit-identical across grains {1,default,n} x domains"
    seed_arb (fun seed ->
      let model = connected_model ~seed ~n:90 ~dim:2 ~alpha:0.8 in
      let base = build_fingerprint ~domains:1 model in
      List.for_all
        (fun g ->
          List.for_all
            (fun d ->
              with_grain g (fun () ->
                  build_fingerprint ~domains:d model)
              = base)
            [ 1; 4; 8 ])
        [ Some 1; None; Some 100_000 ])

(* Tracing must observe the build, never perturb it: spanner edges and
   phase stats bit-identical with spans recorded or not, at the domain
   counts the observability work promises (1 and 4). The traced build
   also pins the stage names E-scale and perfbench report: "stage"
   spans carry exactly these seven names, each as many times as its
   stage.<name> timer counts calls. *)
let stage_names =
  [
    "short_edges"; "freeze"; "cover"; "select"; "cluster_graph"; "queries";
    "redundant";
  ]

let prop_build_identical_traced =
  qtest ~count:4 "build bit-identical with tracing on, 1/4 domains" seed_arb
    (fun seed ->
      let model = connected_model ~seed ~n:90 ~dim:2 ~alpha:0.8 in
      let base = build_fingerprint ~domains:1 model in
      let timers =
        List.map (fun s -> (s, Obs.Metrics.timer ("stage." ^ s))) stage_names
      in
      let traced domains =
        List.iter (fun (_, t) -> Obs.Metrics.reset t) timers;
        let prev = Obs.Trace.enabled () in
        Obs.Trace.set_enabled true;
        Obs.Trace.clear ();
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.set_enabled prev;
            Obs.Trace.clear ())
          (fun () ->
            let fingerprint = build_fingerprint ~domains model in
            let spans =
              List.filter_map
                (fun (e : Obs.Trace.event) ->
                  if e.cat = "stage" then Some e.name else None)
                (Obs.Trace.events ())
            in
            let count s = List.length (List.filter (String.equal s) spans) in
            fingerprint = base
            && List.sort_uniq compare spans = List.sort compare stage_names
            && List.for_all
                 (fun (s, t) -> snd (Obs.Metrics.timer_value t) = count s)
                 timers)
      in
      Topo.Relaxed_greedy.stages = stage_names && traced 1 && traced 4)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_array_map;
          Alcotest.test_case "mapi slot order" `Quick test_mapi_slot_order;
          Alcotest.test_case "parallel_for touches each slot once" `Quick
            test_parallel_for_each_slot_once;
          Alcotest.test_case "ordered non-commutative reduce" `Quick
            test_map_reduce_non_commutative;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested maps degrade gracefully" `Quick
            test_nested_maps;
          Alcotest.test_case "set/clear domains" `Quick
            test_set_and_clear_domains;
          Alcotest.test_case "grain controls" `Quick test_grain_controls;
          Alcotest.test_case "exceptions propagate at grain 1" `Quick
            test_exception_propagates_at_grain_one;
          Alcotest.test_case "eager wake same results" `Quick
            test_eager_wake_same_results;
        ] );
      ( "workspace",
        [
          prop_workspace_agrees;
          prop_within_into_agrees;
          prop_multi_forest;
          prop_plain_entries_keep_domain_tree;
        ] );
      ( "determinism",
        [
          prop_build_deterministic Geometry.Metric.Euclidean
            "build (local mode) bit-identical at 1/2/4 domains";
          prop_build_deterministic
            (Geometry.Metric.Energy { c = 1.0; gamma = 2.0 })
            "build (global mode) bit-identical at 1/2/4 domains";
          prop_build_deterministic_grain_grid;
          prop_build_identical_traced;
        ] );
    ]
