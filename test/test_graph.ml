module Wgraph = Graph.Wgraph
module Heap = Graph.Heap
module Union_find = Graph.Union_find
module Dijkstra = Graph.Dijkstra
module Csr = Graph.Csr
module Bfs = Graph.Bfs
module Mst = Graph.Mst
module Components = Graph.Components
module Apsp = Graph.Apsp
module Flow = Graph.Flow
module Path = Graph.Path
open Test_helpers

(* ------------------------------------------------------------------ *)
(* Wgraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_wgraph_basics () =
  let g = Wgraph.create 4 in
  Alcotest.(check int) "no edges" 0 (Wgraph.n_edges g);
  Wgraph.add_edge g 0 1 1.0;
  Wgraph.add_edge g 1 2 2.0;
  Alcotest.(check int) "two edges" 2 (Wgraph.n_edges g);
  Alcotest.(check bool) "mem" true (Wgraph.mem_edge g 1 0);
  Alcotest.(check (option (float 1e-12))) "weight" (Some 2.0) (Wgraph.weight g 2 1);
  Alcotest.(check int) "degree" 2 (Wgraph.degree g 1);
  Wgraph.add_edge g 0 1 5.0;
  Alcotest.(check int) "reweight keeps count" 2 (Wgraph.n_edges g);
  Alcotest.(check (option (float 1e-12))) "reweighted" (Some 5.0) (Wgraph.weight g 0 1);
  Alcotest.(check bool) "remove" true (Wgraph.remove_edge g 0 1);
  Alcotest.(check bool) "remove again" false (Wgraph.remove_edge g 0 1);
  Alcotest.(check int) "one edge" 1 (Wgraph.n_edges g)

let test_wgraph_errors () =
  let g = Wgraph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Wgraph.add_edge: self loop")
    (fun () -> Wgraph.add_edge g 1 1 1.0);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Wgraph.add_edge: nonpositive weight") (fun () ->
      Wgraph.add_edge g 0 1 0.0);
  Alcotest.check_raises "range" (Invalid_argument "Wgraph: vertex out of range")
    (fun () -> Wgraph.add_edge g 0 7 1.0)

let test_wgraph_copy_independent () =
  let g = Wgraph.create 3 in
  Wgraph.add_edge g 0 1 1.0;
  let h = Wgraph.copy g in
  Wgraph.add_edge h 1 2 1.0;
  Alcotest.(check int) "copy gained" 2 (Wgraph.n_edges h);
  Alcotest.(check int) "original untouched" 1 (Wgraph.n_edges g)

let test_wgraph_union () =
  let g = Wgraph.of_edges ~n:3 [ (0, 1, 2.0) ] in
  let h = Wgraph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 3.0) ] in
  Wgraph.union g h;
  Alcotest.(check (option (float 1e-12))) "min weight wins" (Some 1.0)
    (Wgraph.weight g 0 1);
  Alcotest.(check int) "merged" 2 (Wgraph.n_edges g)

let test_wgraph_grow () =
  let g = Wgraph.of_edges ~n:3 [ (0, 1, 2.0); (1, 2, 3.0) ] in
  Wgraph.grow g 2;
  Alcotest.(check int) "never shrinks" 3 (Wgraph.n_vertices g);
  Wgraph.grow g 5;
  Alcotest.(check int) "grown" 5 (Wgraph.n_vertices g);
  Alcotest.(check int) "edges kept" 2 (Wgraph.n_edges g);
  Alcotest.(check (option (float 0.0))) "weight kept" (Some 3.0)
    (Wgraph.weight g 2 1);
  Alcotest.(check int) "new vertex isolated" 0 (Wgraph.degree g 4);
  Wgraph.add_edge g 4 0 1.0;
  Alcotest.(check bool) "new vertex usable" true
    (Wgraph.mem_edge g 0 4 && Wgraph.is_symmetric_consistent g)

let prop_wgraph_consistent =
  qtest "wgraph: symmetric adjacency invariant" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 30 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 20) in
      for _ = 0 to 5 do
        let u = Random.State.int st n and v = Random.State.int st n in
        if u <> v then ignore (Wgraph.remove_edge g u v)
      done;
      Wgraph.is_symmetric_consistent g)

let prop_wgraph_edges_roundtrip =
  qtest "wgraph: edges list round-trips" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 20 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 10) in
      let rebuilt =
        Wgraph.of_edges ~n
          (List.map (fun (e : Wgraph.edge) -> (e.u, e.v, e.w)) (Wgraph.edges g))
      in
      Wgraph.n_edges rebuilt = Wgraph.n_edges g
      && List.for_all
           (fun (e : Wgraph.edge) -> Wgraph.weight rebuilt e.u e.v = Some e.w)
           (Wgraph.edges g))

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let prop_heap_sorts =
  qtest "heap: pops in priority order" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 1 + Random.State.int st 100 in
      let h = Heap.create n in
      let prios = Array.init n (fun _ -> Random.State.float st 100.0) in
      Array.iteri (fun k p -> Heap.insert h k p) prios;
      let rec drain last =
        if Heap.is_empty h then true
        else begin
          let _, p = Heap.pop_min h in
          p >= last && drain p
        end
      in
      drain neg_infinity)

let prop_heap_decrease =
  qtest "heap: decrease-key moves element forward" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 50 in
      let h = Heap.create n in
      for k = 0 to n - 1 do
        Heap.insert h k (10.0 +. Random.State.float st 10.0)
      done;
      let k = Random.State.int st n in
      Heap.decrease h k 1.0;
      fst (Heap.pop_min h) = k)

let test_heap_errors () =
  let h = Heap.create 2 in
  Heap.insert h 0 1.0;
  Alcotest.check_raises "duplicate" (Invalid_argument "Heap.insert: duplicate key")
    (fun () -> Heap.insert h 0 2.0);
  Alcotest.check_raises "increase"
    (Invalid_argument "Heap.decrease: priority increase") (fun () ->
      Heap.decrease h 0 5.0);
  Alcotest.(check bool) "mem" true (Heap.mem h 0);
  Alcotest.(check bool) "not mem" false (Heap.mem h 1);
  ignore (Heap.pop_min h);
  Alcotest.check_raises "empty pop" Not_found (fun () -> ignore (Heap.pop_min h))

(* ------------------------------------------------------------------ *)
(* Union-find                                                         *)
(* ------------------------------------------------------------------ *)

let test_union_find () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial classes" 5 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union again" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "classes after" 4 (Union_find.count uf)

(* ------------------------------------------------------------------ *)
(* Dijkstra                                                           *)
(* ------------------------------------------------------------------ *)

let prop_dijkstra_vs_floyd =
  qtest ~count:40 "dijkstra: matches Floyd-Warshall" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 25 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 30) in
      let fw = Apsp.floyd_warshall g in
      let dj = Apsp.dijkstra_all g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if not (close ~eps:1e-9 fw.(u).(v) dj.(u).(v)) then ok := false
        done
      done;
      !ok)

let prop_dijkstra_path_length =
  qtest "dijkstra: reported path realizes the distance" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 25 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 20) in
      let u = Random.State.int st n and v = Random.State.int st n in
      match Dijkstra.path g u v with
      | None -> false (* random_graph is connected *)
      | Some p ->
          Path.is_valid g p
          && close ~eps:1e-9 (Path.length g p) (Dijkstra.distance g u v))

let prop_hop_bounded_unbounded_agrees =
  qtest "dijkstra: hop-bounded with n hops equals exact" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 20 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 20) in
      let u = Random.State.int st n and v = Random.State.int st n in
      let exact = Dijkstra.distance g u v in
      close ~eps:1e-9 exact
        (Dijkstra.hop_bounded_distance g u v ~max_hops:n ~bound:infinity))

let test_hop_bounded_respects_hops () =
  (* Triangle detour: 0-1 direct weight 10, 0-2-1 weight 2. *)
  let g = Wgraph.of_edges ~n:3 [ (0, 1, 10.0); (0, 2, 1.0); (2, 1, 1.0) ] in
  check_float "one hop takes direct edge" 10.0
    (Dijkstra.hop_bounded_distance g 0 1 ~max_hops:1 ~bound:infinity);
  check_float "two hops takes detour" 2.0
    (Dijkstra.hop_bounded_distance g 0 1 ~max_hops:2 ~bound:infinity);
  Alcotest.(check bool) "bound excludes all" true
    (Dijkstra.hop_bounded_distance g 0 1 ~max_hops:1 ~bound:5.0 = infinity)

let prop_within_bound =
  qtest "dijkstra: within returns exactly the ball" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 25 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 15) in
      let src = Random.State.int st n in
      let bound = Random.State.float st 3.0 in
      let dist = Dijkstra.distances g src in
      let ball = Dijkstra.within g src ~bound in
      List.for_all (fun (v, d) -> close ~eps:1e-9 dist.(v) d && d <= bound) ball
      && List.length ball
         = Array.fold_left
             (fun acc d -> if d <= bound then acc + 1 else acc)
             0 dist)

(* Two random components plus up to two isolated vertices, so every
   source has unreachable vertices. *)
let split_graph st =
  let n1 = 1 + Random.State.int st 30 and n2 = 1 + Random.State.int st 12 in
  let g = Wgraph.create (n1 + n2 + Random.State.int st 3) in
  let copy off h =
    Wgraph.iter_edges h (fun u v w -> Wgraph.add_edge g (u + off) (v + off) w)
  in
  copy 0 (random_graph ~st ~n:n1 ~extra_edges:(Random.State.int st 45));
  copy n1 (random_graph ~st ~n:n2 ~extra_edges:(Random.State.int st 15));
  g

(* Targets as the certifier picks them (the source's neighbors) or
   anywhere, with repeats and the source itself mixed in; sometimes
   none. *)
let random_targets st g src =
  let n = Wgraph.n_vertices g in
  let near = Array.of_list (List.map fst (Wgraph.neighbors g src)) in
  let k = Random.State.int st 7 in
  let targets = Array.make k src in
  for i = 0 to k - 1 do
    targets.(i) <-
      (match Random.State.int st 6 with
      | 0 -> src
      | 1 when i > 0 -> targets.(Random.State.int st i)
      | (1 | 2 | 3) when Array.length near > 0 ->
          near.(Random.State.int st (Array.length near))
      | _ -> Random.State.int st n)
  done;
  targets

(* [c] with every edge whose endpoints both lie farther than [r] from
   the source reweighted to [neg_infinity]. A search that stops at its
   farthest target never relaxes such an edge; one that runs on
   drives labels to [neg_infinity], and they spread to the targets. *)
let tripwired c ~dist ~r =
  let wgt = Array.copy c.Csr.wgt in
  for u = 0 to Csr.n_vertices c - 1 do
    for k = c.Csr.off.(u) to c.Csr.off.(u + 1) - 1 do
      if dist.(u) > r && dist.(c.Csr.dst.(k)) > r then wgt.(k) <- neg_infinity
    done
  done;
  Csr.of_arrays ~off:(Array.copy c.Csr.off) ~dst:(Array.copy c.Csr.dst) ~wgt

let prop_distances_to_exact =
  qtest ~count:60
    "dijkstra: distances_to_csr = distances_csr at each target, bit for bit"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let g = split_graph st in
      let c = Csr.of_wgraph g in
      let bits = Array.map Int64.bits_of_float in
      let ok = ref true in
      for _ = 1 to 12 do
        let src = Random.State.int st (Wgraph.n_vertices g) in
        let targets = random_targets st g src in
        let dist = Dijkstra.distances_csr c src in
        let expected = bits (Array.map (fun v -> dist.(v)) targets) in
        if bits (Dijkstra.distances_to_csr c src ~targets) <> expected then
          ok := false;
        (* No edge past the farthest target may be relaxed. With an
           unreachable target [r] is infinite and nothing is wired. *)
        let r =
          Array.fold_left (fun m v -> Float.max m dist.(v)) neg_infinity targets
        in
        if
          bits (Dijkstra.distances_to_csr (tripwired c ~dist ~r) src ~targets)
          <> expected
        then ok := false
      done;
      !ok)

let test_distances_to_range () =
  let c = Csr.of_wgraph (Wgraph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 1.0) ]) in
  let rejects src targets =
    try
      ignore (Dijkstra.distances_to_csr c src ~targets);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "target past the end" true (rejects 0 [| 1; 3 |]);
  Alcotest.(check bool) "negative target" true (rejects 0 [| -1 |]);
  Alcotest.(check bool) "source out of range" true (rejects 3 [| 0 |]);
  Alcotest.(check (array (float 0.0))) "in range" [| 2.0; 0.0 |]
    (Dijkstra.distances_to_csr c 0 ~targets:[| 2; 0 |])

(* Landmark distance rows as the oracle lays them out: an n x m
   vertex-major table. *)
let landmark_table rows : Dijkstra.landmarks =
  let m = Array.length rows and n = Array.length rows.(0) in
  { table = Array.init (n * m) (fun x -> rows.(x mod m).(x / m)); m }

(* [g] frozen as is, with about a quarter of its edges at weight zero
   ([Wgraph] refuses those, the snapshot takes them), or with
   Energy-like weights (squared, as c |uv|^gamma with c = 1, gamma = 2
   makes them). *)
let reweighted st g =
  let c = Csr.of_wgraph g in
  let salt = Random.State.bits st in
  let wgt = Array.copy c.Csr.wgt in
  let mode = Random.State.int st 3 in
  for u = 0 to Csr.n_vertices c - 1 do
    for k = c.Csr.off.(u) to c.Csr.off.(u + 1) - 1 do
      let v = c.Csr.dst.(k) in
      match mode with
      | 0 -> ()
      | 1 ->
          if Hashtbl.hash (salt, min u v, max u v) mod 4 = 0 then
            wgt.(k) <- 0.0
      | _ -> wgt.(k) <- wgt.(k) *. wgt.(k)
    done
  done;
  Csr.of_arrays ~off:(Array.copy c.Csr.off) ~dst:(Array.copy c.Csr.dst) ~wgt

(* The edges of the route entry's parent chain from [src] to [dst], in
   the order the search from [dst] added them; [None] if it dead-ends
   or loops. *)
let parent_chain ws ~n ~src ~dst c =
  let rec walk v acc steps =
    if v = dst then Some acc
    else
      let p = Dijkstra.ws_parent ws v in
      if p < 0 || steps > n then None
      else
        match Csr.weight c v p with
        | None -> None
        | Some w -> walk p (w :: acc) (steps + 1)
  in
  walk src [] 0

(* Bounded searches store nothing above their bound. On graphs of
   small integer weights, where labels tie everywhere and often equal
   the (integer) bound exactly, every bounded entry must still agree
   with the unbounded reference: a ball holds exactly the vertices the
   reference puts within the bound, at the reference's labels, in
   nondecreasing order; an [upto] answer is the reference's label
   bit for bit when it lies within the bound and [infinity] above it,
   for the plain, builder, landmark and parents entries alike. *)
let prop_bounded_matches_unbounded =
  qtest ~count:60
    "dijkstra: bounded searches = unbounded reference on tied weights"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = Wgraph.create n in
      for _ = 1 to Random.State.int st (3 * n) do
        let u = Random.State.int st n and v = Random.State.int st n in
        if u <> v then
          Wgraph.add_edge g u v (float_of_int (1 + Random.State.int st 3))
      done;
      let c = Csr.of_wgraph g in
      let ws = Dijkstra.create_workspace () in
      let landmarks =
        landmark_table
          (Array.init 3 (fun _ -> Dijkstra.distances_csr c (Random.State.int st n)))
      in
      let bits = Int64.bits_of_float in
      let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
      List.for_all
        (fun src ->
          let reference = Dijkstra.distances_csr c src in
          let bound = float_of_int (Random.State.int st 8) in
          let within = Array.map (fun d -> d <= bound) reference in
          let ball_ok ball =
            List.length ball = Array.fold_left (fun k b -> if b then k + 1 else k) 0 within
            && List.for_all
                 (fun (v, d) -> within.(v) && bits d = bits reference.(v))
                 ball
            && fst
                 (List.fold_left
                    (fun (ok, prev) (_, d) -> (ok && prev <= d, d))
                    (true, 0.0) ball)
          in
          let k = Dijkstra.within_csr_into ws c src ~bound ~out_v ~out_d in
          let upto_ok d t = bits d = bits (if within.(t) then reference.(t) else infinity) in
          ball_ok (Dijkstra.within_csr_ws ws c src ~bound)
          && ball_ok (Dijkstra.within g src ~bound)
          && ball_ok (List.init k (fun i -> (out_v.(i), out_d.(i))))
          && List.for_all
               (fun t ->
                 upto_ok (Dijkstra.distance_upto_csr_ws ws c src t ~bound) t
                 && upto_ok (Dijkstra.distance_upto_csr_ws ~landmarks ws c src t ~bound) t
                 && upto_ok (Dijkstra.distance_upto g src t ~bound) t
                 &&
                 (Dijkstra.settle_parents_csr_ws ~landmarks ws c src ~target:t ~bound;
                  (not within.(t)) || t = src
                  || Dijkstra.ws_parent ws t >= 0))
               (List.init n Fun.id))
        (List.init (min n 6) (fun _ -> Random.State.int st n)))

let prop_potential_entries_exact =
  qtest ~count:80
    "dijkstra: A* entries with landmark potentials = distances_csr, bit for \
     bit"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let c = reweighted st (split_graph st) in
      let n = Csr.n_vertices c in
      let rows =
        Array.init
          (1 + Random.State.int st 8)
          (fun _ -> Dijkstra.distances_csr c (Random.State.int st n))
      in
      let landmarks = landmark_table rows in
      let ws = Dijkstra.create_workspace () in
      let bits = Int64.bits_of_float in
      let ok = ref true in
      for _ = 1 to 12 do
        let src = Random.State.int st n and dst = Random.State.int st n in
        let d = (Dijkstra.distances_csr c src).(dst) in
        (* At the distance, just above it as the oracle's estimate is,
           or anywhere (unreachable targets included). *)
        let bound =
          match Random.State.int st 3 with
          | 0 when d < infinity -> d
          | 1 when d < infinity ->
              (d *. (1.0 +. Random.State.float st 0.5)) +. 1e-9
          | _ -> Random.State.float st 3.0
        in
        let got =
          Dijkstra.distance_upto_csr_ws ~landmarks ws c src dst ~bound
        in
        if d <= bound then (if bits got <> bits d then ok := false)
        else if not (got > bound) then ok := false;
        (* The route entry searches from [dst] toward [src]; its parent
           chain from [src] folds, from [dst], to [src]'s label. *)
        let rd = (Dijkstra.distances_csr c dst).(src) in
        if rd <= bound && src <> dst then begin
          Dijkstra.settle_parents_csr_ws ~landmarks ws c dst ~target:src
            ~bound;
          match parent_chain ws ~n ~src ~dst c with
          | None -> ok := false
          | Some edges ->
              if bits (List.fold_left ( +. ) 0.0 edges) <> bits rd then
                ok := false
        end
      done;
      !ok)

(* Minor words one call of [f] allocates, averaged over [k] calls after
   a warm-up call that grows the workspaces to the graph. *)
let words_per_call ?(k = 10) f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  for _ = 1 to k do
    ignore (f ())
  done;
  (Gc.minor_words () -. w0) /. float_of_int k

(* Every CSR entry through a workspace allocates nothing per settled
   vertex once the workspace has grown, only a few words per call (the
   boxed bound, an optional argument, [distances_to_csr]'s result). Each
   call below settles hundreds to thousands of vertices, so one word
   per settled vertex would read far above the limit. *)
let test_csr_entries_allocate_nothing () =
  let n = 3000 in
  let side =
    Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha:0.8 ~degree:10.0
  in
  let model =
    Ubg.Generator.connected ~seed:3 ~dim:2 ~n ~alpha:0.8
      (Ubg.Generator.Uniform { side })
  in
  let c = Csr.of_wgraph model.Ubg.Model.graph in
  let ws = Dijkstra.create_workspace () in
  let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
  let out_p = Array.make n 0 in
  let src = 0 in
  let d0 = Dijkstra.distances_csr c src in
  (* The farthest vertex, so target searches settle nearly everything. *)
  let far = ref src in
  Array.iteri (fun v d -> if d > d0.(!far) then far := v) d0;
  let far = !far in
  let rows = Array.map (Dijkstra.distances_csr c) [| 1; 2; 3; 4 |] in
  let landmarks : Dijkstra.landmarks =
    { table = Array.init (n * 4) (fun x -> rows.(x mod 4).(x / 4)); m = 4 }
  in
  let bound = d0.(far) +. 1e-9 in
  let settled = Dijkstra.within_csr_into ws c src ~bound ~out_v ~out_d in
  Alcotest.(check int) "the ball is the whole graph" n settled;
  let limit = 64.0 in
  List.iter
    (fun (name, f) ->
      let w = words_per_call f in
      if w > limit then
        Alcotest.failf "%s: %.1f minor words per call (limit %.0f)" name w
          limit)
    [
      ("ball", fun () -> Dijkstra.within_csr_into ws c src ~bound ~out_v ~out_d);
      ( "target set",
        fun () ->
          Array.length (Dijkstra.distances_to_csr c src ~targets:[| far; 7 |])
      );
      ( "forest",
        fun () ->
          Dijkstra.within_multi_csr_into ws c ~srcs:[| 0; 1000; 2000 |] ~bound
            ~out_v ~out_d ~out_p );
      ( "route parents",
        fun () ->
          Dijkstra.settle_parents_csr_ws ws c src ~target:far ~bound;
          0 );
      ( "plain target",
        fun () ->
          int_of_float (Dijkstra.distance_upto_csr_ws ws c src far ~bound) );
      ( "A* with landmark rows",
        fun () ->
          int_of_float
            (Dijkstra.distance_upto_csr_ws ~landmarks ws c src far ~bound) );
      ( "A* route parents",
        fun () ->
          Dijkstra.settle_parents_csr_ws ~landmarks ws c src ~target:far
            ~bound;
          0 );
      ( "hop-bounded",
        fun () ->
          int_of_float
            (Dijkstra.hop_bounded_distance_csr_ws ws c src far ~max_hops:12
               ~bound) );
    ]

(* ------------------------------------------------------------------ *)
(* BFS                                                                *)
(* ------------------------------------------------------------------ *)

let test_bfs_path_graph () =
  let g = Wgraph.of_edges ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check int) "3 hops" 3 (Bfs.hop_distance g 0 3);
  Alcotest.(check (list int)) "2-ball" [ 0; 1; 2 ]
    (List.sort compare (Bfs.ball g 0 ~radius:2))

let prop_induced_ball =
  qtest "bfs: induced ball preserves inner edges" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 25 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 20) in
      let src = Random.State.int st n in
      let radius = 1 + Random.State.int st 3 in
      let h, vertices = Bfs.induced_ball g src ~radius in
      let index = Hashtbl.create 16 in
      Array.iteri (fun i v -> Hashtbl.add index v i) vertices;
      let ok = ref true in
      Wgraph.iter_edges h (fun i j w ->
          if Wgraph.weight g vertices.(i) vertices.(j) <> Some w then ok := false);
      Wgraph.iter_edges g (fun u v w ->
          match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
          | Some i, Some j ->
              if Wgraph.weight h i j <> Some w then ok := false
          | (Some _ | None), _ -> ());
      !ok)

(* ------------------------------------------------------------------ *)
(* MST                                                                *)
(* ------------------------------------------------------------------ *)

let prop_mst_kruskal_eq_prim =
  qtest "mst: kruskal and prim agree on weight" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 30 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      let wk =
        List.fold_left (fun a (e : Wgraph.edge) -> a +. e.w) 0.0 (Mst.kruskal g)
      and wp =
        List.fold_left (fun a (e : Wgraph.edge) -> a +. e.w) 0.0 (Mst.prim g)
      in
      close ~eps:1e-9 wk wp)

let prop_mst_is_spanning_forest =
  qtest "mst: forest spans with n - c edges" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 30 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 10) in
      List.iteri
        (fun i (e : Wgraph.edge) ->
          if i mod 3 = 0 then ignore (Wgraph.remove_edge g e.u e.v))
        (Wgraph.edges g);
      let f = Mst.forest g in
      Components.count f = Components.count g
      && Wgraph.n_edges f = n - Components.count g)

let test_mst_known () =
  (* Square with a heavy diagonal: the MST avoids it. *)
  let g =
    Wgraph.of_edges ~n:4
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 2.0); (0, 2, 5.0) ]
  in
  check_float "mst weight" 3.0 (Mst.weight g)

(* ------------------------------------------------------------------ *)
(* Components                                                         *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let g = Wgraph.of_edges ~n:5 [ (0, 1, 1.0); (3, 4, 1.0) ] in
  Alcotest.(check int) "three components" 3 (Components.count g);
  Alcotest.(check bool) "not connected" false (Components.is_connected g);
  Alcotest.(check bool) "same" true (Components.same g 0 1);
  Alcotest.(check bool) "different" false (Components.same g 0 3);
  Alcotest.(check (list (list int))) "groups" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ]
    (Components.groups g);
  let lbl = Components.labels g in
  Alcotest.(check int) "label is min member" 3 lbl.(4)

(* ------------------------------------------------------------------ *)
(* Flow                                                               *)
(* ------------------------------------------------------------------ *)

let test_flow_cycle () =
  let g =
    Wgraph.of_edges ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 1.0) ]
  in
  Alcotest.(check int) "edge disjoint" 2 (Flow.edge_disjoint_paths g 0 2);
  Alcotest.(check int) "vertex disjoint" 2 (Flow.vertex_disjoint_paths g 0 2);
  Alcotest.(check int) "edge connectivity" 2 (Flow.edge_connectivity g)

let test_flow_bridge () =
  let g =
    Wgraph.of_edges ~n:6
      [
        (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0);
        (3, 4, 1.0); (4, 5, 1.0); (5, 3, 1.0);
        (2, 3, 1.0);
      ]
  in
  Alcotest.(check int) "across bridge" 1 (Flow.edge_disjoint_paths g 0 5);
  Alcotest.(check int) "connectivity" 1 (Flow.edge_connectivity g)

let test_flow_hub () =
  (* All three routes from 0 to 4 pass through hub 2: edge-disjointness
     3, vertex-disjointness 1. *)
  let g =
    Wgraph.of_edges ~n:5
      [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0); (0, 3, 1.0); (3, 2, 1.0);
        (2, 4, 1.0) ]
  in
  Alcotest.(check int) "vertex disjoint through hub" 1
    (Flow.vertex_disjoint_paths g 0 4);
  Alcotest.(check int) "edge disjoint limited by last edge" 1
    (Flow.edge_disjoint_paths g 0 4)

let prop_flow_menger_bound =
  qtest "flow: disjoint paths bounded by min degree" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 15 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 20) in
      let s = 0 and t = n - 1 in
      if s = t then true
      else begin
        let f = Flow.edge_disjoint_paths g s t in
        let fv = Flow.vertex_disjoint_paths g s t in
        fv <= f && f <= min (Wgraph.degree g s) (Wgraph.degree g t)
      end)

(* ------------------------------------------------------------------ *)
(* Path                                                               *)
(* ------------------------------------------------------------------ *)

let test_path () =
  let g = Wgraph.of_edges ~n:3 [ (0, 1, 1.5); (1, 2, 2.5) ] in
  check_float "length" 4.0 (Path.length g [ 0; 1; 2 ]);
  Alcotest.(check int) "hops" 2 (Path.hops [ 0; 1; 2 ]);
  Alcotest.(check bool) "valid" true (Path.is_valid g [ 0; 1; 2 ]);
  Alcotest.(check bool) "invalid" false (Path.is_valid g [ 0; 2 ]);
  Alcotest.(check bool) "empty invalid" false (Path.is_valid g []);
  Alcotest.(check bool) "simple" true (Path.is_simple [ 0; 1; 2 ]);
  Alcotest.(check bool) "not simple" false (Path.is_simple [ 0; 1; 0 ])

let () =
  Alcotest.run "graph"
    [
      ( "wgraph",
        [
          Alcotest.test_case "basics" `Quick test_wgraph_basics;
          Alcotest.test_case "errors" `Quick test_wgraph_errors;
          Alcotest.test_case "copy independent" `Quick test_wgraph_copy_independent;
          Alcotest.test_case "union" `Quick test_wgraph_union;
          Alcotest.test_case "grow in place" `Quick test_wgraph_grow;
          prop_wgraph_consistent;
          prop_wgraph_edges_roundtrip;
        ] );
      ( "heap",
        [
          prop_heap_sorts;
          prop_heap_decrease;
          Alcotest.test_case "errors" `Quick test_heap_errors;
        ] );
      ("union_find", [ Alcotest.test_case "basics" `Quick test_union_find ]);
      ( "dijkstra",
        [
          prop_dijkstra_vs_floyd;
          prop_dijkstra_path_length;
          prop_hop_bounded_unbounded_agrees;
          Alcotest.test_case "hop bound honored" `Quick test_hop_bounded_respects_hops;
          prop_within_bound;
          prop_bounded_matches_unbounded;
          prop_distances_to_exact;
          Alcotest.test_case "distances_to_csr range checks" `Quick
            test_distances_to_range;
          prop_potential_entries_exact;
          Alcotest.test_case "CSR entries allocate nothing per settled vertex"
            `Quick test_csr_entries_allocate_nothing;
        ] );
      ( "bfs",
        [ Alcotest.test_case "path graph" `Quick test_bfs_path_graph; prop_induced_ball ] );
      ( "mst",
        [
          prop_mst_kruskal_eq_prim;
          prop_mst_is_spanning_forest;
          Alcotest.test_case "known instance" `Quick test_mst_known;
        ] );
      ("components", [ Alcotest.test_case "basics" `Quick test_components ]);
      ( "flow",
        [
          Alcotest.test_case "cycle" `Quick test_flow_cycle;
          Alcotest.test_case "bridge" `Quick test_flow_bridge;
          Alcotest.test_case "hub" `Quick test_flow_hub;
          prop_flow_menger_bound;
        ] );
      ("path", [ Alcotest.test_case "basics" `Quick test_path ]);
    ]
