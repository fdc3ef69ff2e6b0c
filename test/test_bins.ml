module Params = Topo.Params
module Bins = Topo.Bins
module Wgraph = Graph.Wgraph
open Test_helpers

let params = Params.make ~t:1.5 ~alpha:0.8 ~dim:2 ()

let test_bin_structure () =
  let b = Bins.make ~params ~n:100 in
  Alcotest.(check bool) "at least two bins" true (Bins.count b >= 2);
  check_float "W_0 = alpha / n" (0.8 /. 100.0) (Bins.w b 0);
  (* W grows geometrically with ratio r. *)
  check_float ~eps:1e-12 "geometric growth"
    (Bins.w b 0 *. params.Params.r)
    (Bins.w b 1);
  (* The top bin reaches length 1 (no α-UBG edge is longer). *)
  Alcotest.(check bool) "covers unit lengths" true (Bins.w b b.Bins.m >= 1.0)

let prop_index_within_interval =
  qtest ~count:200 "bins: index places length inside its interval" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 1000 in
      let b = Bins.make ~params ~n in
      let len = 1e-6 +. Random.State.float st (1.0 -. 1e-6) in
      let i = Bins.index b len in
      let lo, hi = Bins.interval b i in
      lo < len +. 1e-15 && len <= hi +. 1e-12)

let prop_intervals_partition =
  qtest ~count:50 "bins: intervals abut with no gap" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 1000 in
      let b = Bins.make ~params ~n in
      let ok = ref true in
      for i = 1 to b.Bins.m do
        let _, hi_prev = Bins.interval b (i - 1) in
        let lo, _ = Bins.interval b i in
        if not (close ~eps:1e-15 hi_prev lo) then ok := false
      done;
      !ok)

let test_index_boundaries () =
  let b = Bins.make ~params ~n:10 in
  Alcotest.(check int) "exact W_0 is bin 0" 0 (Bins.index b (Bins.w b 0));
  Alcotest.(check int) "just above W_0 is bin 1" 1
    (Bins.index b (Bins.w b 0 +. 1e-12));
  Alcotest.(check int) "exact W_1 is bin 1" 1 (Bins.index b (Bins.w b 1))

let prop_partition_preserves_edges =
  qtest ~count:30 "bins: partition loses no edge and respects intervals"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 10 + Random.State.int st 50 in
      let model = random_model ~seed ~n ~dim:2 ~alpha:0.8 in
      let b = Bins.make ~params ~n in
      let edges = Wgraph.edges model.Ubg.Model.graph in
      let binned = Bins.partition b edges in
      let total =
        Array.fold_left (fun acc l -> acc + Array.length l) 0 binned
      in
      total = List.length edges
      && Array.for_all Fun.id
           (Array.mapi
              (fun i l ->
                Array.for_all
                  (fun (e : Wgraph.edge) ->
                    let lo, hi = Bins.interval b i in
                    lo < e.w +. 1e-15 && e.w <= hi +. 1e-12)
                  l)
              binned)
      && Random.State.int st 2 >= 0)

(* The reference [Bins.index] must agree with: walk the thresholds up
   one multiplication at a time from alpha / n, stopping at the first
   one at least [len] or at the top bin. *)
let chain_index (b : Bins.t) len =
  let rec go i threshold =
    if len <= threshold || i = b.m then i else go (i + 1) (threshold *. b.r)
  in
  go 0 (b.alpha /. float_of_int b.n)

(* Every edge of the seed-1 perfbench-family instances (expected degree
   10, alpha 0.8) binned at eps 0.5, and every chain threshold with the
   floats on either side of it. *)
let test_index_matches_chain () =
  let params = Params.of_epsilon ~eps:0.5 ~alpha:0.8 ~dim:2 in
  List.iter
    (fun n ->
      let side =
        Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha:0.8
          ~degree:10.0
      in
      let model =
        Ubg.Generator.connected ~seed:1 ~dim:2 ~n ~alpha:0.8
          (Ubg.Generator.Uniform { side })
      in
      let b = Bins.make ~params ~n in
      let edges = ref 0 and bad = ref 0 in
      let check len = if Bins.index b len <> chain_index b len then incr bad in
      Wgraph.iter_edges model.Ubg.Model.graph (fun _ _ w ->
          incr edges;
          check w);
      let threshold = ref (b.alpha /. float_of_int n) in
      for _ = 0 to b.m do
        List.iter
          (fun x -> if x > 0.0 && x <= 1.0 then check x)
          [ Float.pred !threshold; !threshold; Float.succ !threshold ];
        threshold := !threshold *. b.r
      done;
      Alcotest.(check bool) (Printf.sprintf "n = %d has edges" n) true (!edges > n);
      Alcotest.(check int) (Printf.sprintf "n = %d mismatches" n) 0 !bad)
    [ 800; 7000; 10_000 ]

let test_errors () =
  let b = Bins.make ~params ~n:10 in
  Alcotest.(check bool) "length 0 rejected" true
    (try
       ignore (Bins.index b 0.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "length > 1 rejected" true
    (try
       ignore (Bins.index b 1.5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative bin rejected" true
    (try
       ignore (Bins.w b (-1));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "bins"
    [
      ( "bins",
        [
          Alcotest.test_case "structure" `Quick test_bin_structure;
          prop_index_within_interval;
          prop_intervals_partition;
          Alcotest.test_case "boundaries" `Quick test_index_boundaries;
          Alcotest.test_case "index = chain walk" `Quick
            test_index_matches_chain;
          prop_partition_preserves_edges;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
    ]
