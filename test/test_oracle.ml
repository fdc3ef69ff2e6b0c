module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra
module Pool = Parallel.Pool
module Churn = Ubg.Churn
module Engine = Dynamic.Engine
module Dist = Oracle.Dist
module Service = Oracle.Service
open Test_helpers

let oracle_eps = 0.5

let model_csr ~seed ~n =
  let model = connected_model ~seed ~n ~dim:2 ~alpha:0.8 in
  Csr.of_wgraph model.Ubg.Model.graph

(* Sample pairs deterministically across the id range. *)
let sample_pairs ~seed ~n ~count =
  let st = Random.State.make [| seed; 0x0ac1e |] in
  Array.init count (fun _ ->
      (Random.State.int st n, Random.State.int st n))

(* ------------------------------------------------------------------ *)
(* Estimate quality                                                    *)
(* ------------------------------------------------------------------ *)

(* The oracle's contract: never below the exact snapshot distance,
   never above (1 + eps) times it. The lower bound is structural
   (estimates are walk lengths); the upper bound is the advertised
   guarantee the E-qps bench also enforces at n = 10^4. *)
let prop_estimate_within_eps =
  qtest ~count:12 "oracle: d <= estimate <= (1+eps) d on sampled pairs"
    seed_arb (fun seed ->
      let n = 180 in
      let csr = model_csr ~seed ~n in
      let oracle = Dist.build ~eps:oracle_eps csr in
      let qws = Dist.create_query_ws () in
      let pairs = sample_pairs ~seed ~n ~count:60 in
      Array.for_all
        (fun (u, v) ->
          let exact = Dijkstra.distance_csr csr u v in
          let est = Dist.distance_estimate oracle qws u v in
          if exact = infinity then est = infinity
          else
            est >= exact -. 1e-9
            && est <= ((1.0 +. oracle_eps) *. exact) +. 1e-9)
        pairs)

(* Combined with a certified t-spanner this is the end-to-end claim:
   estimates over the spanner stay within (1+eps) t of the base
   graph. *)
let prop_estimate_within_eps_t_of_base =
  qtest ~count:6 "oracle over spanner: estimate <= (1+eps) t d_base"
    seed_arb (fun seed ->
      let n = 120 in
      let model = connected_model ~seed ~n ~dim:2 ~alpha:0.8 in
      let params =
        Topo.Params.of_epsilon ~eps:0.5 ~alpha:model.Ubg.Model.alpha
          ~dim:(Ubg.Model.dim model)
      in
      let t = params.Topo.Params.t in
      let spanner =
        (Topo.Relaxed_greedy.build ~params model).Topo.Relaxed_greedy.spanner
      in
      let base = Csr.of_wgraph model.Ubg.Model.graph in
      let sp_csr = Csr.of_wgraph spanner in
      let oracle = Dist.build ~eps:oracle_eps sp_csr in
      let qws = Dist.create_query_ws () in
      let pairs = sample_pairs ~seed ~n ~count:40 in
      Array.for_all
        (fun (u, v) ->
          let d_base = Dijkstra.distance_csr base u v in
          let est = Dist.distance_estimate oracle qws u v in
          if d_base = infinity then est = infinity
          else
            est >= d_base -. 1e-9
            && est <= ((1.0 +. oracle_eps) *. t *. d_base) +. 1e-9)
        pairs)

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                       *)
(* ------------------------------------------------------------------ *)

let estimates_fingerprint ~domains csr ~pairs =
  Pool.set_domains domains;
  Fun.protect ~finally:Pool.clear_domains (fun () ->
      let oracle = Dist.build ~eps:oracle_eps csr in
      let s = Dist.stats oracle in
      let n = Array.length pairs in
      let u = Array.map fst pairs and v = Array.map snd pairs in
      let out = Array.make n 0.0 in
      Dist.distance_batch_into oracle ~u ~v ~out;
      (s.Dist.n_clusters, s.Dist.radius, Array.to_list out))

let prop_deterministic_across_domains =
  qtest ~count:8 "oracle: bit-identical across TOPO_DOMAINS in {1, 4, 8}"
    seed_arb (fun seed ->
      let n = 150 in
      let csr = model_csr ~seed ~n in
      let pairs = sample_pairs ~seed ~n ~count:80 in
      let f1 = estimates_fingerprint ~domains:1 csr ~pairs in
      let f4 = estimates_fingerprint ~domains:4 csr ~pairs in
      let f8 = estimates_fingerprint ~domains:8 csr ~pairs in
      f1 = f4 && f4 = f8)

let prop_batch_matches_scalar =
  qtest ~count:10 "oracle: batch answers equal scalar answers" seed_arb
    (fun seed ->
      let n = 140 in
      let csr = model_csr ~seed ~n in
      let oracle = Dist.build ~eps:oracle_eps csr in
      let qws = Dist.create_query_ws () in
      let pairs = sample_pairs ~seed ~n ~count:70 in
      let u = Array.map fst pairs and v = Array.map snd pairs in
      let out = Array.make (Array.length pairs) nan in
      Dist.distance_batch_into oracle ~u ~v ~out;
      Array.for_all
        (fun i -> out.(i) = Dist.distance_estimate oracle qws u.(i) v.(i))
        (Array.init (Array.length pairs) (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)
(* ------------------------------------------------------------------ *)

let edge_weight csr u v =
  let w = ref infinity in
  Csr.iter_neighbors csr u (fun x wx -> if x = v then w := wx);
  !w

(* The route contract on one pair: [path] runs from [u] to [v] over
   snapshot edges and its length is exactly [est] (searched routes are
   shortest paths, table routes expand the estimate's walk). *)
let is_walk_of_length csr ~est ~u ~v path =
  let m = Array.length path in
  let len = ref 0.0 in
  let ok = ref (m > 0 && path.(0) = u && path.(m - 1) = v) in
  for i = 0 to m - 2 do
    let w = edge_weight csr path.(i) path.(i + 1) in
    if w = infinity then ok := false else len := !len +. w
  done;
  !ok && abs_float (!len -. est) <= 1e-6

(* The DIST answer for (u, v), and whether the oracle read it off its
   tables: its far count moved. Every other answer ran a search or is
   trivial. *)
let answer o qws u v =
  let far = Dist.far_answers qws in
  let est = Dist.distance_estimate o qws u v in
  (est, Dist.far_answers qws > far)

(* Routes leave their cluster only on table answers, and at the sizes
   above no sampled pair is one. Oracle eps = 4 over a relaxed spanner
   at n = 300 shrinks the near band to 5 rho: a fifth or more of the
   sampled pairs are table answers, and their routes cross many
   clusters. *)
let far_n = 300
let far_eps = 4.0

(* The repair chain's field: larger than [far_n]'s, so its sampled
   pairs span more clusters. *)
let far_repair_n = 800

let relaxed_spanner_csr ~seed ~n =
  let model = connected_model ~seed ~n ~dim:2 ~alpha:0.8 in
  let params =
    Topo.Params.of_epsilon ~eps:0.5 ~alpha:model.Ubg.Model.alpha
      ~dim:(Ubg.Model.dim model)
  in
  Csr.of_wgraph
    (Topo.Relaxed_greedy.build ~params model).Topo.Relaxed_greedy.spanner

(* Runs [check] on the n = 160 base graph at [oracle_eps] and on the
   far-pair instance; the far one must sample at least one table
   answer, so the property cannot hold vacuously. *)
let on_both_instances ~seed ~count check =
  let n = 160 in
  let csr = model_csr ~seed ~n in
  let near_ok, _ =
    check csr (Dist.build ~eps:oracle_eps csr) (sample_pairs ~seed ~n ~count)
  in
  let csr = relaxed_spanner_csr ~seed ~n:far_n in
  let far_ok, far =
    check csr (Dist.build ~eps:far_eps csr)
      (sample_pairs ~seed ~n:far_n ~count:(3 * count))
  in
  near_ok && far_ok && far > 0

let prop_spanner_path_is_walk_of_estimate_length =
  qtest ~count:10 "oracle: spanner_path is a walk of length = estimate"
    seed_arb (fun seed ->
      on_both_instances ~seed ~count:40 (fun csr oracle pairs ->
          let qws = Dist.create_query_ws () in
          let far = ref 0 in
          let ok =
            Array.for_all
              (fun (u, v) ->
                let est, table = answer oracle qws u v in
                if table then incr far;
                match Dist.spanner_path oracle qws ~src:u ~dst:v with
                | None -> est = infinity
                | Some path -> is_walk_of_length csr ~est ~u ~v path)
              pairs
          in
          (ok, !far)))

(* Forwarding follows the route [spanner_path] returns, hop for hop,
   and stops at the first arrival at [dst]. A far walk can climb
   through [dst] to its center and come back down; forwarding delivers
   at that first visit, below the estimate. Every other route,
   including every near one, delivers at exactly the estimate. *)
let prop_next_hop_delivers =
  qtest ~count:10 "oracle: next_hop forwarding delivers at estimate cost"
    seed_arb (fun seed ->
      on_both_instances ~seed ~count:30 (fun csr oracle pairs ->
          let n = Csr.n_vertices csr in
          let qws = Dist.create_query_ws () in
          let far = ref 0 in
          let ok =
            Array.for_all
              (fun (src, dst) ->
                let est, table = answer oracle qws src dst in
                if table then incr far;
                let route =
                  Option.value ~default:[||]
                    (Dist.spanner_path oracle qws ~src ~dst)
                in
                let len = ref 0.0 in
                let cur = ref src in
                let hops = ref 0 in
                let ok = ref true in
                while !ok && !cur <> dst && !hops <= 4 * n do
                  (match Dist.next_hop oracle qws !cur ~dst with
                  | -1 | -2 -> ok := false
                  | nxt ->
                      let w = edge_weight csr !cur nxt in
                      if
                        w = infinity
                        || !hops + 1 >= Array.length route
                        || route.(!hops + 1) <> nxt
                      then ok := false
                      else begin
                        len := !len +. w;
                        cur := nxt
                      end);
                  incr hops
                done;
                if est = infinity then not !ok
                else
                  !ok && !cur = dst
                  && (!hops < Array.length route - 1
                     || abs_float (!len -. est) <= 1e-6))
              pairs
          in
          (ok, !far)))

(* An independent reference for table answers. Rebuild the centers
   with the cover greedy at the oracle's radius and grow their forest;
   give every adjacent cluster pair its cheapest crossing walk
   ([add_edge_min] over all crossing edges) and run all-pairs Dijkstra
   on that center graph. A table answer must be the walk through the
   cheapest portals along a shortest center-graph path,
   [d(u, c_u) + D(c_u, c_v) + d(c_v, v)], bit for bit, and lie above
   the near band; every other answer ran a search and must be
   [distance_csr]'s, bit for bit. *)
let prop_far_answers_match_reference =
  qtest ~count:8 "oracle: far answers equal an independent center-graph walk"
    seed_arb (fun seed ->
      let csr = relaxed_spanner_csr ~seed ~n:far_n in
      let n = Csr.n_vertices csr in
      let oracle = Dist.build ~eps:far_eps csr in
      let s = Dist.stats oracle in
      let radius = s.Dist.radius in
      let centers =
        Array.of_seq
          (Seq.filter
             (fun c -> Csr.degree csr c > 0)
             (Array.to_seq
                (Topo.Cluster_cover.compute_csr csr ~radius)
                  .Topo.Cluster_cover.centers))
      in
      let k = Array.length centers in
      let ix = Array.make n (-1) and dtc = Array.make n infinity in
      Array.iteri (fun i c -> ix.(c) <- i) centers;
      let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
      let out_p = Array.make n 0 in
      let cnt =
        Dijkstra.within_multi_csr_into (Dijkstra.create_workspace ()) csr
          ~srcs:centers ~bound:radius ~out_v ~out_d ~out_p
      in
      for i = 0 to cnt - 1 do
        let v = out_v.(i) and p = out_p.(i) in
        dtc.(v) <- out_d.(i);
        if p >= 0 then ix.(v) <- ix.(p)
      done;
      let h = Graph.Wgraph.create k in
      Csr.iter_edges csr (fun x y w ->
          if ix.(x) >= 0 && ix.(y) >= 0 && ix.(x) <> ix.(y) then
            ignore
              (Graph.Wgraph.add_edge_min h ix.(x) ix.(y)
                 (dtc.(x) +. w +. dtc.(y))));
      let d = Graph.Apsp.dijkstra_all h in
      let qws = Dist.create_query_ws () in
      let bits = Int64.bits_of_float in
      let far = ref 0 and searched = ref 0 in
      let ok =
        Array.for_all
          (fun (u, v) ->
            u = v || ix.(u) < 0 || ix.(v) < 0
            ||
            let est, table = answer oracle qws u v in
            if table then begin
              incr far;
              let l = dtc.(u) +. d.(ix.(u)).(ix.(v)) +. dtc.(v) in
              l > s.Dist.near_bound && Int64.equal (bits est) (bits l)
            end
            else begin
              incr searched;
              Int64.equal (bits est) (bits (Dijkstra.distance_csr csr u v))
            end)
          (sample_pairs ~seed ~n ~count:200)
      in
      k = s.Dist.n_clusters && ok && !far > 0 && !searched > 0)

(* The envelope holds with no condition on the cover. On this instance
   family (alpha = 0.8, expected degree 10, a relaxed eps = 0.5
   spanner, n = 1500) an L returned without its landmark certificate
   breaks it on a few pairs per seed. 20,000 random pairs
   per seed: every answer lies in [d, (1 + eps) d], every searched one
   is [distances_csr]'s bit for bit, and every route is a spanner walk
   of the answer's length. Pairs are sorted by source, so one full
   search per distinct source gives the exact distances. *)
let test_envelope_unconditional () =
  let n = 1500 and alpha = 0.8 in
  let bits = Int64.bits_of_float in
  List.iter
    (fun seed ->
      let side =
        Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha ~degree:10.0
      in
      let model =
        Ubg.Generator.connected ~seed ~dim:2 ~n ~alpha
          (Ubg.Generator.Uniform { side })
      in
      let csr =
        Csr.of_wgraph
          (Topo.Relaxed_greedy.build_eps ~eps:0.5 model)
            .Topo.Relaxed_greedy.spanner
      in
      let o = Dist.build ~eps:oracle_eps csr in
      let qws = Dist.create_query_ws () in
      let pairs = sample_pairs ~seed ~n ~count:20_000 in
      Array.sort compare pairs;
      let src = ref (-1) and exact = ref [||] in
      let outside = ref 0 and inexact = ref 0 and bad_routes = ref 0 in
      let table = ref 0 in
      Array.iter
        (fun (u, v) ->
          if u <> !src then begin
            src := u;
            exact := Dijkstra.distances_csr csr u
          end;
          let d = !exact.(v) in
          let est, from_table = answer o qws u v in
          if from_table then incr table
          else if bits est <> bits d then incr inexact;
          if not (est >= d -. 1e-9 && est <= (1.0 +. oracle_eps) *. d) then
            incr outside;
          match Dist.spanner_path o qws ~src:u ~dst:v with
          | Some path when is_walk_of_length csr ~est ~u ~v path -> ()
          | Some _ | None -> incr bad_routes)
        pairs;
      let check what =
        Alcotest.(check int) (Printf.sprintf "seed %d: %s" seed what) 0
      in
      check "answers outside [d, (1+eps) d]" !outside;
      check "searched answers not bit-exact" !inexact;
      check "routes not a walk of the answer's length" !bad_routes;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some answers from the tables" seed)
        true (!table > 0))
    [ 1; 2; 3 ]

let test_next_hop_cache_deviation () =
  (* Forward two packets to the same destination with interleaved
     holders: every deviation from the cached route must recompute and
     still deliver. *)
  let csr = model_csr ~seed:42 ~n:150 in
  let oracle = Dist.build ~eps:oracle_eps csr in
  let qws = Dist.create_query_ws () in
  let dst = 7 in
  let deliver src =
    let cur = ref src and hops = ref 0 in
    while !cur <> dst && !hops < 1000 do
      (match Dist.next_hop oracle qws !cur ~dst with
      | -1 | -2 -> hops := 1000
      | nxt -> cur := nxt);
      incr hops
    done;
    !cur = dst
  in
  (* Interleave by re-querying from a fresh source mid-stream. *)
  Alcotest.(check bool) "first delivers" true (deliver 141);
  Alcotest.(check bool) "second delivers (cache invalidated)" true
    (deliver 3);
  Alcotest.(check bool) "same route again (cache hit path)" true
    (deliver 141)

let test_trivial_and_unreachable () =
  let g = Graph.Wgraph.create 4 in
  Graph.Wgraph.add_edge g 0 1 1.0;
  (* vertices 2 and 3 isolated *)
  let csr = Csr.of_wgraph g in
  let oracle = Dist.build ~eps:oracle_eps csr in
  let qws = Dist.create_query_ws () in
  check_float "self distance" 0.0 (Dist.distance_estimate oracle qws 2 2);
  Alcotest.(check bool) "isolated pair unreachable" true
    (Dist.distance_estimate oracle qws 2 3 = infinity);
  Alcotest.(check bool) "connected pair exact" true
    (close (Dist.distance_estimate oracle qws 0 1) 1.0);
  Alcotest.(check int) "next_hop at destination" (-1)
    (Dist.next_hop oracle qws 1 ~dst:1);
  Alcotest.(check int) "next_hop unreachable" (-2)
    (Dist.next_hop oracle qws 2 ~dst:3);
  Alcotest.(check bool) "no path to isolated" true
    (Dist.spanner_path oracle qws ~src:0 ~dst:3 = None)

(* ------------------------------------------------------------------ *)
(* Incremental repair                                                  *)
(* ------------------------------------------------------------------ *)

let churn_snapshots ~seed ~n ~epochs ~batch_max =
  let alpha = 0.8 in
  let model = connected_model ~seed ~n ~dim:2 ~alpha in
  let side =
    Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha ~degree:9.0
  in
  let trace =
    Churn.generate ~seed:(seed + 31) ~epochs ~batch_max
      (Churn.default_dynamics ~side)
      model
  in
  let params =
    Topo.Params.of_epsilon ~eps:0.5 ~alpha:model.Ubg.Model.alpha
      ~dim:(Ubg.Model.dim model)
  in
  let e = Engine.create ~params model in
  let snaps = ref [ Engine.latest e ] in
  Array.iter
    (fun b ->
      ignore (Engine.apply_batch e b);
      snaps := Engine.latest e :: !snaps)
    trace.Ubg.Churn.batches;
  Array.of_list (List.rev !snaps)

(* Chain repairs across a recorded churn trace; on every epoch the
   repaired oracle must keep the full contract on the new snapshot —
   dominate exact distances and stay inside the (1+eps) envelope, like
   a scratch build would (it may anchor clusters differently, so only
   the envelope is compared, not bits). *)
let prop_repair_matches_scratch_within_envelope =
  qtest ~count:6 "repair: chained repairs keep the scratch envelope"
    seed_arb (fun seed ->
      let n = 150 in
      let snaps = churn_snapshots ~seed ~n ~epochs:5 ~batch_max:5 in
      let qws = Dist.create_query_ws () in
      let ok = ref true in
      let prev = ref (Dist.build ~eps:oracle_eps snaps.(0).Engine.snap_spanner) in
      for i = 1 to Array.length snaps - 1 do
        let csr = snaps.(i).Engine.snap_spanner in
        let r =
          Dist.repair ~prev:!prev ~dirty:snaps.(i).Engine.snap_dirty csr
        in
        let scratch = Dist.build ~eps:oracle_eps csr in
        let pairs = sample_pairs ~seed:(seed + i) ~n ~count:40 in
        Array.iter
          (fun (u, v) ->
            let exact = Dijkstra.distance_csr csr u v in
            let est = Dist.distance_estimate r.Dist.oracle qws u v in
            let est_scratch = Dist.distance_estimate scratch qws u v in
            if exact = infinity then
              ok := !ok && est = infinity && est_scratch = infinity
            else begin
              let envelope e =
                e >= exact -. 1e-9
                && e <= ((1.0 +. oracle_eps) *. exact) +. 1e-9
              in
              ok := !ok && envelope est && envelope est_scratch
            end)
          pairs;
        prev := r.Dist.oracle
      done;
      !ok)

(* Repaired routes must still be genuine walks of exactly the
   estimate's length — the route machinery reads the regrown
   [up]/portal tables. The chain runs at oracle eps on n = 140, and at
   eps = 4 on n = [far_repair_n], where some sampled pairs must be
   far. *)
let repaired_routes_ok ~seed ~n ~eps ~count =
  let snaps = churn_snapshots ~seed ~n ~epochs:4 ~batch_max:5 in
  let qws = Dist.create_query_ws () in
  let ok = ref true and far = ref 0 in
  let prev = ref (Dist.build ~eps snaps.(0).Engine.snap_spanner) in
  for i = 1 to Array.length snaps - 1 do
    let csr = snaps.(i).Engine.snap_spanner in
    let r = Dist.repair ~prev:!prev ~dirty:snaps.(i).Engine.snap_dirty csr in
    let o = r.Dist.oracle in
    let pairs = sample_pairs ~seed:(seed + (7 * i)) ~n ~count in
    Array.iter
      (fun (u, v) ->
        let est, table = answer o qws u v in
        if table then incr far;
        match Dist.spanner_path o qws ~src:u ~dst:v with
        | None -> ok := !ok && est = infinity
        | Some path -> ok := !ok && is_walk_of_length csr ~est ~u ~v path)
      pairs;
    prev := o
  done;
  (!ok, !far)

let prop_repair_routes_are_walks =
  qtest ~count:5 "repair: routes on repaired oracles are walks of estimate \
                  length" seed_arb (fun seed ->
      let near_ok, _ =
        repaired_routes_ok ~seed ~n:140 ~eps:oracle_eps ~count:25
      in
      let far_ok, far =
        repaired_routes_ok ~seed ~n:far_repair_n ~eps:far_eps ~count:75
      in
      near_ok && far_ok && far > 0)

let repair_fingerprint ~domains snaps ~pairs =
  Pool.set_domains domains;
  Fun.protect ~finally:Pool.clear_domains (fun () ->
      let acc = ref [] in
      let prev =
        ref (Dist.build ~eps:oracle_eps snaps.(0).Engine.snap_spanner)
      in
      for i = 1 to Array.length snaps - 1 do
        let r =
          Dist.repair ~prev:!prev ~dirty:snaps.(i).Engine.snap_dirty
            snaps.(i).Engine.snap_spanner
        in
        let o = r.Dist.oracle in
        let n = Array.length pairs in
        let u = Array.map fst pairs and v = Array.map snd pairs in
        let out = Array.make n 0.0 in
        Dist.distance_batch_into o ~u ~v ~out;
        acc :=
          (r.Dist.repaired, r.Dist.fallback, r.Dist.affected_clusters,
           Array.to_list out)
          :: !acc;
        prev := o
      done;
      List.rev !acc)

let prop_repair_deterministic_across_domains =
  qtest ~count:5 "repair: bit-identical across TOPO_DOMAINS in {1, 4, 8}"
    seed_arb (fun seed ->
      let n = 130 in
      let snaps = churn_snapshots ~seed ~n ~epochs:4 ~batch_max:5 in
      let pairs = sample_pairs ~seed ~n ~count:60 in
      let f1 = repair_fingerprint ~domains:1 snaps ~pairs in
      let f4 = repair_fingerprint ~domains:4 snaps ~pairs in
      let f8 = repair_fingerprint ~domains:8 snaps ~pairs in
      f1 = f4 && f4 = f8)

let test_repair_forced_fallback () =
  (* Marking every vertex dirty trips the dirty-fraction gate: repair
     must decline, scratch-build, and still produce a valid oracle. *)
  let csr = model_csr ~seed:11 ~n:120 in
  let prev = Dist.build ~eps:oracle_eps csr in
  let dirty = Array.init 120 (fun i -> i) in
  let r = Dist.repair ~prev ~dirty csr in
  Alcotest.(check bool) "fell back" false r.Dist.repaired;
  Alcotest.(check (option string)) "names the gate" (Some "dirty_fraction")
    r.Dist.fallback;
  let qws = Dist.create_query_ws () in
  let pairs = sample_pairs ~seed:11 ~n:120 ~count:30 in
  Array.iter
    (fun (u, v) ->
      let exact = Dijkstra.distance_csr csr u v in
      let est = Dist.distance_estimate r.Dist.oracle qws u v in
      Alcotest.(check bool) "fallback oracle dominates exact" true
        (est >= exact -. 1e-9))
    pairs

let test_repair_dirty_out_of_range () =
  (* The range check comes before every gate: a dirty set this large
     would otherwise trip the dirty-fraction fallback first. *)
  let csr = model_csr ~seed:11 ~n:120 in
  let prev = Dist.build ~eps:oracle_eps csr in
  Alcotest.check_raises "out-of-range dirty vertex"
    (Invalid_argument "Oracle.repair: dirty out of range") (fun () ->
      ignore (Dist.repair ~prev ~dirty:(Array.init 120 (fun i -> i - 1)) csr))

let test_repair_empty_dirty () =
  (* An unchanged snapshot repairs in O(1): same tables, zero affected
     clusters, answers bit-identical to the previous oracle. *)
  let csr = model_csr ~seed:5 ~n:100 in
  let prev = Dist.build ~eps:oracle_eps csr in
  let r = Dist.repair ~prev ~dirty:[||] csr in
  Alcotest.(check bool) "repaired" true r.Dist.repaired;
  Alcotest.(check int) "no affected clusters" 0 r.Dist.affected_clusters;
  let qws = Dist.create_query_ws () in
  let pairs = sample_pairs ~seed:5 ~n:100 ~count:30 in
  Array.iter
    (fun (u, v) ->
      check_float
        (Printf.sprintf "answer %d-%d unchanged" u v)
        (Dist.distance_estimate prev qws u v)
        (Dist.distance_estimate r.Dist.oracle qws u v))
    pairs

(* ------------------------------------------------------------------ *)
(* Near answers are exact A* searches                                  *)
(* ------------------------------------------------------------------ *)

(* Every searched answer through [o] (its near count moved), inside
   the near band or beyond it, is the plain search's, bit for bit: the
   scalar estimate and the batch slot equal [distance_csr], and the
   route's edges, summed from [v] as the search from [v] adds them,
   equal [distance_csr csr v u]. Returns the verdict and the searched
   count, so a caller can require searched answers to exist. *)
let near_answers_exact o csr pairs =
  let qws = Dist.create_query_ws () in
  let bits = Int64.bits_of_float in
  let out = Array.make (Array.length pairs) nan in
  Dist.distance_batch_into o ~u:(Array.map fst pairs) ~v:(Array.map snd pairs)
    ~out;
  let ok = ref true and near = ref 0 in
  Array.iteri
    (fun i (u, v) ->
      let searched = Dist.near_answers qws in
      let est = Dist.distance_estimate o qws u v in
      if bits out.(i) <> bits est then ok := false;
      if Dist.near_answers qws > searched then begin
        incr near;
        if bits est <> bits (Dijkstra.distance_csr csr u v) then ok := false;
        match Dist.spanner_path o qws ~src:u ~dst:v with
        | None -> ok := false
        | Some p ->
            let m = Array.length p in
            let len = ref 0.0 in
            for j = m - 1 downto 1 do
              len := !len +. edge_weight csr p.(j) p.(j - 1)
            done;
            if
              p.(0) <> u
              || p.(m - 1) <> v
              || bits !len <> bits (Dijkstra.distance_csr csr v u)
            then ok := false
      end)
    pairs;
  (!ok, !near)

(* [csr] with [extra] isolated slots appended, as an engine snapshot
   grows its capacity. *)
let with_slots csr extra =
  let n = Csr.n_vertices csr in
  let off = Array.append csr.Csr.off (Array.make extra csr.Csr.off.(n)) in
  Csr.of_arrays ~off ~dst:(Array.copy csr.Csr.dst) ~wgt:(Array.copy csr.Csr.wgt)

(* A relaxed spanner beside a 12 x 12 grid, rows of 0.1-long edges and
   columns of 0.3-long ones, and 50 isolated slots. The grid's many
   equal-length paths add their edges in different orders, so their
   float lengths differ in the last bits: without its scale and shift
   the landmark bound fails this test here. *)
let two_components_csr ~seed =
  let a = relaxed_spanner_csr ~seed ~n:200 in
  let na = Csr.n_vertices a and side = 12 in
  let g = Graph.Wgraph.create (na + (side * side) + 50) in
  Csr.iter_edges a (fun u v w -> Graph.Wgraph.add_edge g u v w);
  let at r c = na + (r * side) + c in
  for r = 0 to side - 1 do
    for c = 0 to side - 1 do
      if c + 1 < side then Graph.Wgraph.add_edge g (at r c) (at r (c + 1)) 0.1;
      if r + 1 < side then Graph.Wgraph.add_edge g (at r c) (at (r + 1) c) 0.3
    done
  done;
  Csr.of_wgraph g

let prop_near_answers_exact =
  qtest ~count:5 "oracle: near answers equal distance_csr, bit for bit"
    seed_arb (fun seed ->
      let energy = Geometry.Metric.Energy { c = 1.0; gamma = 2.0 } in
      let model = connected_model ~seed ~n:250 ~dim:2 ~alpha:0.8 in
      let energy_csr =
        Csr.of_wgraph
          (Topo.Relaxed_greedy.build_eps ~metric:energy ~eps:0.5 model)
            .Topo.Relaxed_greedy.spanner
      in
      let relaxed = relaxed_spanner_csr ~seed ~n:far_n in
      let split = two_components_csr ~seed in
      let grid_pairs =
        (* Corner to corner inside the grid, where ties abound. *)
        let base = Csr.n_vertices split - 50 - 144 in
        Array.init 40 (fun i -> (base + (i mod 12), base + 143 - (i / 3)))
      in
      let instances =
        [
          (relaxed, oracle_eps, [||]);
          (relaxed, far_eps, [||]);
          (energy_csr, oracle_eps, [||]);
          (split, oracle_eps, grid_pairs);
        ]
      in
      List.for_all
        (fun (csr, eps, extra) ->
          let n = Csr.n_vertices csr in
          let pairs = Array.append (sample_pairs ~seed ~n ~count:120) extra in
          let ok, near = near_answers_exact (Dist.build ~eps csr) csr pairs in
          ok && near > 0)
        instances)

(* The same over a repair chain, ending with an empty-dirty repair onto
   a snapshot grown by 20 isolated slots, which keeps the previous
   landmark rows. *)
let prop_repaired_near_answers_exact =
  qtest ~count:4 "repair: near answers equal distance_csr, bit for bit"
    seed_arb (fun seed ->
      let n = 200 in
      let snaps = churn_snapshots ~seed ~n ~epochs:4 ~batch_max:5 in
      let ok = ref true in
      let check o csr =
        let m = Csr.n_vertices csr in
        let good, near =
          near_answers_exact o csr (sample_pairs ~seed ~n:m ~count:80)
        in
        ok := !ok && good && near > 0
      in
      let prev = ref (Dist.build ~eps:oracle_eps snaps.(0).Engine.snap_spanner) in
      for i = 1 to Array.length snaps - 1 do
        let csr = snaps.(i).Engine.snap_spanner in
        let r = Dist.repair ~prev:!prev ~dirty:snaps.(i).Engine.snap_dirty csr in
        check r.Dist.oracle csr;
        prev := r.Dist.oracle
      done;
      let grown = with_slots (Dist.csr !prev) 20 in
      let r = Dist.repair ~prev:!prev ~dirty:[||] grown in
      check r.Dist.oracle grown;
      !ok && r.Dist.repaired)

(* ------------------------------------------------------------------ *)
(* Service: RCU publication                                            *)
(* ------------------------------------------------------------------ *)

let trace_setup ~seed ~n ~epochs ~batch_max =
  let alpha = 0.8 in
  let model = connected_model ~seed ~n ~dim:2 ~alpha in
  let side =
    Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha ~degree:9.0
  in
  let trace =
    Churn.generate ~seed:(seed + 17) ~epochs ~batch_max
      (Churn.default_dynamics ~side)
      model
  in
  (model, trace)

let params_for model =
  Topo.Params.of_epsilon ~eps:0.5 ~alpha:model.Ubg.Model.alpha
    ~dim:(Ubg.Model.dim model)

let test_service_publishes_epochs () =
  let model, trace = trace_setup ~seed:9 ~n:60 ~epochs:4 ~batch_max:4 in
  let e = Engine.create ~params:(params_for model) model in
  let s = Service.attach ~eps:oracle_eps e in
  Alcotest.(check int) "epoch 0 published" 0 (Service.current s).Service.epoch;
  Engine.replay e trace ~f:(fun r ->
      let entry = Service.current s in
      Alcotest.(check int) "entry tracks engine epoch" r.Engine.epoch
        entry.Service.epoch;
      (* The published oracle serves the published snapshot: estimates
         must dominate exact distances on that csr. *)
      let qws = Dist.create_query_ws () in
      let n = Csr.n_vertices entry.Service.csr in
      let pairs = sample_pairs ~seed:r.Engine.epoch ~n ~count:10 in
      Array.iter
        (fun (u, v) ->
          let exact = Dijkstra.distance_csr entry.Service.csr u v in
          let est = Dist.distance_estimate entry.Service.oracle qws u v in
          Alcotest.(check bool) "estimate dominates exact" true
            (est >= exact -. 1e-9))
        pairs)

(* Queries race an epoch advance: a reader domain hammers the current
   entry while the engine replays a churn trace and republishes. The
   reader must always see a coherent (csr, oracle) pair — estimates
   finite or infinite, never an exception — and must observe at least
   one epoch beyond 0. *)
let test_concurrent_query_during_epoch_advance () =
  let model, trace = trace_setup ~seed:3 ~n:70 ~epochs:5 ~batch_max:5 in
  let e = Engine.create ~params:(params_for model) model in
  let s = Service.attach ~eps:oracle_eps e in
  let stop = Atomic.make false in
  let seen_epochs = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let qws = Dist.create_query_ws () in
        let st = Random.State.make [| 0xbeef |] in
        let max_epoch = ref 0 in
        let queries = ref 0 in
        while not (Atomic.get stop) do
          let entry = Service.current s in
          if entry.Service.epoch > !max_epoch then
            max_epoch := entry.Service.epoch;
          let n = Csr.n_vertices entry.Service.csr in
          let u = Random.State.int st n and v = Random.State.int st n in
          let est = Dist.distance_estimate entry.Service.oracle qws u v in
          if not (est >= 0.0) then failwith "negative estimate";
          incr queries
        done;
        Atomic.set seen_epochs !max_epoch;
        !queries)
  in
  Engine.replay e trace ~f:(fun _ -> ());
  Atomic.set stop true;
  let queries = Domain.join reader in
  Alcotest.(check bool) "reader made progress" true (queries > 0);
  Alcotest.(check bool) "reader observed a published epoch advance" true
    (Atomic.get seen_epochs > 0 || (Service.current s).Service.epoch > 0)

(* A stale or duplicate publish must never regress the served entry —
   this is what makes the attach re-check race-free. *)
let test_publish_is_monotonic () =
  let csr_a = model_csr ~seed:21 ~n:50 in
  let csr_b = model_csr ~seed:22 ~n:50 in
  let s = Service.of_csr ~eps:oracle_eps ~label:"mono" csr_a in
  Service.publish s ~epoch:5 csr_b;
  Alcotest.(check int) "advanced to 5" 5 (Service.current s).Service.epoch;
  let served = (Service.current s).Service.oracle in
  Service.publish s ~epoch:3 csr_a;
  Alcotest.(check int) "stale publish ignored" 5
    (Service.current s).Service.epoch;
  Service.publish s ~epoch:5 csr_a;
  Alcotest.(check bool) "duplicate publish ignored" true
    ((Service.current s).Service.oracle == served)

(* Regression for the attach missed-epoch window: epochs published
   between attach's [Engine.latest] read and its hook registration
   used to be lost until the next batch. The fix re-checks [latest]
   after registering, so an attach racing a live replay always ends
   at the engine's final epoch once the replay domain is joined. *)
let test_attach_races_live_engine () =
  for round = 0 to 3 do
    let model, trace = trace_setup ~seed:(40 + round) ~n:60 ~epochs:6 ~batch_max:4 in
    let e = Engine.create ~params:(params_for model) model in
    let replayer =
      Domain.spawn (fun () ->
          Array.iter
            (fun b ->
              ignore (Engine.apply_batch e b);
              Unix.sleepf 0.002)
            trace.Ubg.Churn.batches)
    in
    Unix.sleepf 0.004;
    let s = Service.attach ~eps:oracle_eps ~label:"race" e in
    Domain.join replayer;
    Alcotest.(check int)
      (Printf.sprintf "round %d: service caught up" round)
      (Engine.epoch e)
      (Service.current s).Service.epoch
  done

(* Async attach: the hook only enqueues; flush catches the builder up
   and the published chain must show repairs, not per-epoch scratch
   rebuilds. After shutdown further epochs publish synchronously. *)
let test_attach_async_flush_and_shutdown () =
  let model, trace = trace_setup ~seed:13 ~n:60 ~epochs:5 ~batch_max:4 in
  let e = Engine.create ~params:(params_for model) model in
  let s = Service.attach ~eps:oracle_eps ~label:"async" ~async:true e in
  Engine.replay e trace ~f:(fun _ -> ());
  Service.flush s;
  Alcotest.(check int) "published epoch tracks engine after flush"
    (Engine.epoch e)
    (Service.current s).Service.epoch;
  let st = Service.stats s in
  Alcotest.(check int) "no pending jobs after flush" 0 st.Service.pending;
  Alcotest.(check int) "every epoch constructed exactly once"
    (Engine.epoch e + 1)
    (st.Service.repairs + st.Service.scratch_builds);
  Service.shutdown s;
  let model2, trace2 = trace_setup ~seed:14 ~n:60 ~epochs:1 ~batch_max:3 in
  ignore model2;
  Array.iter (fun b -> ignore (Engine.apply_batch e b)) trace2.Ubg.Churn.batches;
  Alcotest.(check int) "post-shutdown epochs publish synchronously"
    (Engine.epoch e)
    (Service.current s).Service.epoch

let () =
  Alcotest.run "oracle"
    [
      ( "estimates",
        [
          prop_estimate_within_eps;
          prop_estimate_within_eps_t_of_base;
          prop_batch_matches_scalar;
          Alcotest.test_case "oracle: every answer in [d, (1+eps) d] at \
                              n = 1500, seeds 1-3" `Quick
            test_envelope_unconditional;
        ] );
      ("determinism", [ prop_deterministic_across_domains ]);
      ( "exactness",
        [ prop_near_answers_exact; prop_repaired_near_answers_exact ] );
      ( "routes",
        [
          prop_spanner_path_is_walk_of_estimate_length;
          prop_next_hop_delivers;
          prop_far_answers_match_reference;
          Alcotest.test_case "next_hop cache deviation" `Quick
            test_next_hop_cache_deviation;
          Alcotest.test_case "trivial and unreachable queries" `Quick
            test_trivial_and_unreachable;
        ] );
      ( "repair",
        [
          prop_repair_matches_scratch_within_envelope;
          prop_repair_routes_are_walks;
          prop_repair_deterministic_across_domains;
          Alcotest.test_case "forced fallback keeps the contract" `Quick
            test_repair_forced_fallback;
          Alcotest.test_case "out-of-range dirty vertex raises before the \
                              gates" `Quick test_repair_dirty_out_of_range;
          Alcotest.test_case "empty dirty set is a no-op repair" `Quick
            test_repair_empty_dirty;
        ] );
      ( "service",
        [
          Alcotest.test_case "publish per epoch" `Quick
            test_service_publishes_epochs;
          Alcotest.test_case "concurrent query during epoch advance" `Quick
            test_concurrent_query_during_epoch_advance;
          Alcotest.test_case "publish is monotonic by epoch" `Quick
            test_publish_is_monotonic;
          Alcotest.test_case "attach races a live engine" `Quick
            test_attach_races_live_engine;
          Alcotest.test_case "async attach: flush and shutdown" `Quick
            test_attach_async_flush_and_shutdown;
        ] );
    ]
