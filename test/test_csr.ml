module Wgraph = Graph.Wgraph
module Csr = Graph.Csr
open Test_helpers

(* Edge sets as canonical sorted (u, v, w) lists, u < v. *)
let edge_set edges =
  List.sort compare
    (List.map
       (fun (e : Wgraph.edge) -> (min e.u e.v, max e.u e.v, e.w))
       edges)

let prop_roundtrip =
  qtest ~count:50 "csr: of_wgraph |> to_wgraph preserves the graph" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let g' = Csr.to_wgraph c in
      Csr.n_vertices c = n
      && Csr.n_edges c = Wgraph.n_edges g
      && Wgraph.n_edges g' = Wgraph.n_edges g
      && edge_set (Wgraph.edges g') = edge_set (Wgraph.edges g))

let prop_adjacency_sorted =
  qtest ~count:50 "csr: adjacency slices are strictly sorted by id" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let ok = ref true in
      for u = 0 to n - 1 do
        let prev = ref (-1) in
        Csr.iter_neighbors c u (fun v w ->
            if v <= !prev then ok := false;
            prev := v;
            if Wgraph.weight g u v <> Some w then ok := false);
        if Csr.degree c u <> Wgraph.degree g u then ok := false
      done;
      !ok)

let prop_mem_and_weight =
  qtest ~count:50 "csr: mem_edge/weight agree with the builder" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 50) in
      let c = Csr.of_wgraph g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            if Csr.mem_edge c u v <> Wgraph.mem_edge g u v then ok := false;
            if Csr.weight c u v <> Wgraph.weight g u v then ok := false
          end
        done
      done;
      !ok)

let prop_iter_edges_each_once =
  qtest ~count:50 "csr: iter_edges emits each edge once, u < v, sorted"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let seen = ref [] in
      Csr.iter_edges c (fun u v w -> seen := (u, v, w) :: !seen);
      let seen = List.rev !seen in
      List.length seen = Wgraph.n_edges g
      && List.for_all (fun (u, v, _) -> u < v) seen
      && List.sort compare seen = seen
      && List.sort compare seen = edge_set (Wgraph.edges g))

(* The algorithm cores must be metric-identical on both representations
   for random UBG instances. *)
let prop_dijkstra_agrees =
  qtest ~count:30 "csr: Dijkstra distances identical on Wgraph vs Csr"
    seed_arb (fun seed ->
      let model = random_model ~seed ~n:60 ~dim:2 ~alpha:0.8 in
      let g = model.Ubg.Model.graph in
      let c = Csr.of_wgraph g in
      let ok = ref true in
      for src = 0 to min 9 (Wgraph.n_vertices g - 1) do
        let dw = Graph.Dijkstra.distances g src
        and dc = Graph.Dijkstra.distances_csr c src in
        if dw <> dc then ok := false
      done;
      !ok)

let prop_mst_agrees =
  qtest ~count:30 "csr: MST weight identical on Wgraph vs Csr" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let c = Csr.of_wgraph g in
      let sum es =
        List.fold_left (fun acc (e : Wgraph.edge) -> acc +. e.w) 0.0 es
      in
      close (Graph.Mst.weight g) (Graph.Mst.weight_csr c)
      && close (sum (Graph.Mst.kruskal g)) (sum (Graph.Mst.kruskal_csr c))
      && close (sum (Graph.Mst.prim g)) (sum (Graph.Mst.prim_csr c)))

let prop_components_agree =
  qtest ~count:30 "csr: components identical on Wgraph vs Csr" seed_arb
    (fun seed ->
      let model = random_model ~seed ~n:50 ~dim:2 ~alpha:0.8 in
      let g = model.Ubg.Model.graph in
      let c = Csr.of_wgraph g in
      Graph.Components.labels g = Graph.Components.labels_csr c
      && Graph.Components.count g = Graph.Components.count_csr c
      && Graph.Components.is_connected g = Graph.Components.is_connected_csr c)

let test_empty_graph () =
  let g = Wgraph.create 5 in
  let c = Csr.of_wgraph g in
  Alcotest.(check int) "vertices" 5 (Csr.n_vertices c);
  Alcotest.(check int) "edges" 0 (Csr.n_edges c);
  Alcotest.(check int) "max degree" 0 (Csr.max_degree c);
  Alcotest.(check bool) "no edge" false (Csr.mem_edge c 0 1);
  let hit = ref false in
  Csr.iter_edges c (fun _ _ _ -> hit := true);
  Alcotest.(check bool) "iter_edges silent" false !hit

let test_total_weight () =
  let g = Wgraph.create 3 in
  Wgraph.add_edge g 0 1 1.5;
  Wgraph.add_edge g 1 2 2.5;
  let c = Csr.of_wgraph g in
  check_float "total weight" 4.0 (Csr.total_weight c);
  Alcotest.(check int) "n_edges" 2 (Csr.n_edges c);
  check_float "weight lookup" 2.5
    (Option.value ~default:nan (Csr.weight c 2 1))

(* ------------------------------------------------------------------ *)
(* Adopting caller-built arrays                                        *)
(* ------------------------------------------------------------------ *)

let prop_of_arrays_sorts =
  (* of_arrays must normalize arbitrarily-ordered slices to the exact
     layout of_wgraph produces — this is the contract the cluster-graph
     emit depends on. *)
  qtest ~count:40 "csr: of_arrays normalizes reversed slices" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 50) in
      let c = Csr.of_wgraph g in
      let m2 = Array.length c.Csr.dst in
      let dst = Array.make m2 0 and wgt = Array.make m2 0.0 in
      (* Refill each slice in reverse order, then let of_arrays sort. *)
      for u = 0 to n - 1 do
        let lo = c.Csr.off.(u) and hi = c.Csr.off.(u + 1) in
        for k = lo to hi - 1 do
          let k' = hi - 1 - (k - lo) in
          dst.(k) <- c.Csr.dst.(k');
          wgt.(k) <- c.Csr.wgt.(k')
        done
      done;
      Csr.of_arrays ~off:(Array.copy c.Csr.off) ~dst ~wgt = c)

(* Shuffled rather than reversed slices, with a hub whose slice is
   long enough for the heapsort path. *)
let prop_of_arrays_sorts_shuffled =
  qtest ~count:40 "csr: of_arrays normalizes shuffled slices, hubs included"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 20 + Random.State.int st 180 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 50) in
      let hub = Random.State.int st n in
      for v = 0 to n - 1 do
        if v <> hub && Random.State.int st 3 > 0 then
          Wgraph.add_edge g hub v (0.5 +. Random.State.float st 1.0)
      done;
      let c = Csr.of_wgraph g in
      let dst = Array.copy c.Csr.dst and wgt = Array.copy c.Csr.wgt in
      for u = 0 to n - 1 do
        let lo = c.Csr.off.(u) and hi = c.Csr.off.(u + 1) in
        for k = hi - 1 downto lo + 1 do
          let j = lo + Random.State.int st (k - lo + 1) in
          let v = dst.(k) and w = wgt.(k) in
          dst.(k) <- dst.(j);
          wgt.(k) <- wgt.(j);
          dst.(j) <- v;
          wgt.(j) <- w
        done
      done;
      Csr.of_arrays ~off:(Array.copy c.Csr.off) ~dst ~wgt = c)

(* Sorting happens in place on the adopted arrays: the only allocation
   is the snapshot record, however many slices arrive out of order
   (a boxed weight or a tuple per arc would read thousands of words). *)
let test_of_arrays_sorts_without_allocating () =
  let n = 2000 in
  let st = Random.State.make [| 17 |] in
  let g = random_graph ~st ~n ~extra_edges:(6 * n) in
  for v = 1 to 200 do
    Wgraph.add_edge g 0 v 1.0
  done;
  let c = Csr.of_wgraph g in
  let shuffled () =
    let dst = Array.copy c.Csr.dst and wgt = Array.copy c.Csr.wgt in
    for u = 0 to n - 1 do
      let lo = c.Csr.off.(u) and hi = c.Csr.off.(u + 1) in
      for k = lo to ((lo + hi) / 2) - 1 do
        let k' = hi - 1 - (k - lo) in
        let v = dst.(k) and w = wgt.(k) in
        dst.(k) <- dst.(k');
        wgt.(k) <- wgt.(k');
        dst.(k') <- v;
        wgt.(k') <- w
      done
    done;
    (Array.copy c.Csr.off, dst, wgt)
  in
  let off, dst, wgt = shuffled () in
  let w0 = Gc.minor_words () in
  let sorted = Csr.of_arrays ~off ~dst ~wgt in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "same layout" true (sorted = c);
  if words > 64.0 then
    Alcotest.failf "of_arrays allocated %.0f minor words" words

(* The region snapshot: [restrict] of a snapshot [c] of the builder [g]
   must equal freezing the induced subgraph of [g] assembled vertex by
   vertex as a Wgraph, with offsets, targets and weight bit patterns
   equal, and every arc mapped back through [region] must be the global
   edge of [g] it came from. *)
let bits c = Array.map Int64.bits_of_float c.Csr.wgt

let region_snapshot_ok c g region =
  let n = Wgraph.n_vertices g in
  let local_of = Array.make n (-1) in
  Array.iteri (fun i v -> local_of.(v) <- i) region;
  let c = Csr.restrict c ~region ~local_of in
  let h = Wgraph.create (Array.length region) in
  Array.iteri
    (fun i v ->
      Wgraph.iter_neighbors g v (fun u w ->
          let j = local_of.(u) in
          if j > i then Wgraph.add_edge h i j w))
    region;
  let expected = Csr.of_wgraph h in
  c.Csr.off = expected.Csr.off
  && c.Csr.dst = expected.Csr.dst
  && bits c = bits expected
  &&
  let global_ok = ref true in
  Csr.iter_edges c (fun i j w ->
      match Wgraph.weight g region.(i) region.(j) with
      | Some w' when Int64.bits_of_float w' = Int64.bits_of_float w -> ()
      | Some _ | None -> global_ok := false);
  !global_ok

let random_subset st n =
  let keep = Random.State.float st 1.0 in
  Array.of_list
    (List.filter
       (fun _ -> Random.State.float st 1.0 < keep)
       (List.init n Fun.id))

(* A region snapshot of a frozen graph. Regions: empty, one vertex,
   every vertex, a random increasing subset (slices copied in order)
   and the same subset shuffled (slices that [of_arrays] must sort). *)
let prop_induced_matches_builder =
  qtest ~count:50
    "csr: induced region snapshot = of_wgraph of the induced graph" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 1 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 80) in
      let subset = random_subset st n in
      let shuffled = Array.copy subset in
      for i = Array.length shuffled - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = shuffled.(i) in
        shuffled.(i) <- shuffled.(j);
        shuffled.(j) <- x
      done;
      List.for_all
        (region_snapshot_ok (Csr.of_wgraph g) g)
        [
          [||]; [| Random.State.int st n |]; Array.init n Fun.id; subset;
          shuffled;
        ])

(* A region read out of a snapshot made the way a relaxed-greedy build
   makes its partial spanner: frozen once, then patched by a few
   batches of random edges with [add_edges] (an edge may repeat in its
   batch or be present already; the smaller weight stays) while its
   builder takes the same edges with [add_edge_min]. Regions: empty,
   one vertex, every vertex and a random increasing subset. *)
let prop_restrict_matches_induced =
  qtest ~count:50 "csr: restrict of a snapshot = induced of its builder"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let g = random_graph ~st ~n ~extra_edges:(Random.State.int st 40) in
      let c = ref (Csr.of_wgraph g) in
      for _ = 1 to 1 + Random.State.int st 3 do
        let batch =
          Array.init (Random.State.int st 12) (fun _ ->
              let u = Random.State.int st n in
              let v = (u + 1 + Random.State.int st (n - 1)) mod n in
              { Wgraph.u; v; w = 0.1 +. Random.State.float st 1.0 })
        in
        c := Csr.add_edges !c batch;
        Array.iter
          (fun (e : Wgraph.edge) -> ignore (Wgraph.add_edge_min g e.u e.v e.w))
          batch
      done;
      List.for_all
        (region_snapshot_ok !c g)
        [
          [||]; [| Random.State.int st n |]; Array.init n Fun.id;
          random_subset st n;
        ])

(* The region runner on a mid-algorithm phase (greedy partial spanner
   over the short half of a random α-UBG's edges, next band of edges as
   the bin): on a random sorted region holding the bin's endpoints its
   kept additions, mapped back, carry global ids — they are bin edges —
   and equal a run on the explicitly relabelled sub-instance, bit for
   bit, stats included. *)
let prop_region_runner_global_ids =
  let params = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:2 () in
  qtest ~count:20 "csr: region runner keeps bin edges in global ids" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let model = connected_model ~seed ~n:60 ~dim:2 ~alpha:0.8 in
      let n = Ubg.Model.n model and points = model.Ubg.Model.points in
      let edges =
        List.sort Wgraph.compare_edge (Wgraph.edges model.Ubg.Model.graph)
      in
      let m = List.length edges in
      let w_prev = (List.nth edges ((m / 2) - 1)).w in
      let w_len = w_prev *. params.Topo.Params.r in
      let spanner = Wgraph.create n in
      List.iteri
        (fun i (e : Wgraph.edge) ->
          let budget = params.Topo.Params.t *. e.w in
          if
            i < m / 2
            && Graph.Dijkstra.distance_upto spanner e.u e.v ~bound:budget
               > budget
          then Wgraph.add_edge spanner e.u e.v e.w)
        edges;
      let bin =
        Array.of_list
          (List.filter
             (fun (e : Wgraph.edge) -> e.w > w_prev && e.w <= w_len)
             edges)
      in
      let inside = Array.init n (fun _ -> Random.State.bool st) in
      Array.iter
        (fun (e : Wgraph.edge) ->
          inside.(e.u) <- true;
          inside.(e.v) <- true)
        bin;
      let region =
        Array.of_list (List.filter (fun v -> inside.(v)) (List.init n Fun.id))
      in
      let nr = Array.length region in
      let run ~points ~region ~spanner bin =
        Topo.Relaxed_greedy.run_region ~points ~params ~phase:1
          ~w_prev_len:w_prev ~w_len ~region ~spanner:(Csr.of_wgraph spanner)
          bin
      in
      let kept, stats = run ~points ~region ~spanner bin in
      (* The reference: relabel by hand, run on every local vertex, map
         the kept edges back. *)
      let local_of = Array.make n (-1) in
      Array.iteri (fun i v -> local_of.(v) <- i) region;
      let sub_spanner = Wgraph.create nr in
      Wgraph.iter_edges spanner (fun u v w ->
          if local_of.(u) >= 0 && local_of.(v) >= 0 then
            Wgraph.add_edge sub_spanner local_of.(u) local_of.(v) w);
      let ref_kept, ref_stats =
        run
          ~points:(Array.map (fun v -> points.(v)) region)
          ~region:(Array.init nr Fun.id) ~spanner:sub_spanner
          (Array.map
             (fun (e : Wgraph.edge) ->
               { e with Wgraph.u = local_of.(e.u); v = local_of.(e.v) })
             bin)
      in
      let same (a : Wgraph.edge) (b : Wgraph.edge) =
        a.u = b.u && a.v = b.v
        && Int64.bits_of_float a.w = Int64.bits_of_float b.w
      in
      Array.length kept = Array.length ref_kept
      && Array.for_all2
           (fun a (b : Wgraph.edge) ->
             same a { b with Wgraph.u = region.(b.u); v = region.(b.v) })
           kept ref_kept
      && stats = ref_stats
      && Array.for_all (fun e -> Array.exists (same e) bin) kept)

let test_region_runner_rejects () =
  let params = Topo.Params.make ~t:1.5 ~alpha:0.8 ~dim:2 () in
  let points =
    Array.init 3 (fun i -> Geometry.Point.make2 (float_of_int i *. 0.5) 0.0)
  in
  let spanner = Csr.of_wgraph (Wgraph.create 3) in
  let bin = [| { Wgraph.u = 0; v = 2; w = 1.0 } |] in
  let rejects region =
    try
      ignore
        (Topo.Relaxed_greedy.run_region ~points ~params ~phase:1
           ~w_prev_len:0.5 ~w_len:1.0 ~region ~spanner bin);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "region must increase" true (rejects [| 2; 0 |]);
  Alcotest.(check bool) "bin edges must stay inside" true (rejects [| 0; 1 |]);
  Alcotest.(check bool) "well-formed accepted" false (rejects [| 0; 2 |])

(* The per-bin patch: [add_edges] must equal freezing the builder after
   [Wgraph.add_edge_min] of the same batch, offsets, targets and weight
   bits alike, and leave its input snapshot as it was. Batches mix new
   edges, edges already present (heavier and lighter than the stored
   weight), repeats, a vertex gaining several arcs, arcs at vertices 0
   and n - 1, and nothing at all. *)
let prop_add_edges_matches_builder =
  qtest ~count:60 "csr: add_edges = of_wgraph after add_edge_min" seed_arb
    (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 50 in
      let g = Wgraph.create n in
      for _ = 1 to Random.State.int st (2 * n) do
        let u = Random.State.int st n and v = Random.State.int st n in
        if u <> v then Wgraph.add_edge g u v (0.1 +. Random.State.float st 1.0)
      done;
      let c = Csr.of_wgraph g in
      let before = (Array.copy c.Csr.off, Array.copy c.Csr.dst, bits c) in
      let edge u v = { Wgraph.u; v; w = 0.1 +. Random.State.float st 1.0 } in
      let random_edge () =
        let u = Random.State.int st n in
        let v = (u + 1 + Random.State.int st (n - 1)) mod n in
        edge u v
      in
      let hub = Random.State.int st n in
      let existing = Array.of_list (Wgraph.edges g) in
      let batch =
        match Random.State.int st 4 with
        | 0 -> [||]
        | _ ->
            Array.concat
              [
                Array.init (Random.State.int st 8) (fun _ -> random_edge ());
                Array.init
                  (min (n - 1) (Random.State.int st 5))
                  (fun i -> edge hub ((hub + 1 + i) mod n));
                [| edge 0 (n - 1) |];
                Array.map
                  (fun (e : Wgraph.edge) ->
                    { e with Wgraph.w = e.w *. Random.State.float st 2.0 +. 0.05 })
                  (Array.sub existing 0 (min 3 (Array.length existing)));
              ]
      in
      let batch =
        if Array.length batch > 0 then Array.append batch [| batch.(0) |]
        else batch
      in
      let patched = Csr.add_edges c batch in
      let h = Wgraph.copy g in
      Array.iter
        (fun (e : Wgraph.edge) -> ignore (Wgraph.add_edge_min h e.u e.v e.w))
        batch;
      let expected = Csr.of_wgraph h in
      patched.Csr.off = expected.Csr.off
      && patched.Csr.dst = expected.Csr.dst
      && bits patched = bits expected
      && (Array.copy c.Csr.off, Array.copy c.Csr.dst, bits c) = before)

(* The engine's per-epoch base, with no new edge: [add_edges ~n ~cut]
   of an empty batch must equal freezing the thawed graph, grown to
   [n], without the edges of the cut vertices, offsets, targets and
   weight bits alike, and leave its input snapshot as it was. Cut sets:
   none, every vertex, and a random subset with repeats and new
   vertices; [n] grows by 0 to 5. *)
let prop_cut_matches_builder =
  qtest ~count:60
    "csr: add_edges ~cut = of_wgraph of the grown graph minus the cut"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n0 = 1 + Random.State.int st 50 in
      let g = random_graph ~st ~n:n0 ~extra_edges:(Random.State.int st 60) in
      let c = Csr.of_wgraph g in
      let before = (Array.copy c.Csr.off, Array.copy c.Csr.dst, bits c) in
      let n = n0 + Random.State.int st 6 in
      let random_cut =
        Array.init (Random.State.int st 8) (fun _ -> Random.State.int st n)
      in
      List.for_all
        (fun vs ->
          let cut = Array.make n false in
          Array.iter (fun v -> cut.(v) <- true) vs;
          let h = Wgraph.create n in
          Wgraph.iter_edges g (fun u v w ->
              if not (cut.(u) || cut.(v)) then Wgraph.add_edge h u v w);
          let got = Csr.add_edges ~n ~cut:vs c [||]
          and expected = Csr.of_wgraph h in
          got.Csr.off = expected.Csr.off
          && got.Csr.dst = expected.Csr.dst
          && bits got = bits expected)
        [ [||]; Array.init n Fun.id; random_cut ]
      && (Array.copy c.Csr.off, Array.copy c.Csr.dst, bits c) = before)

(* The engine's whole per-epoch step in one call: grow, cut, then add
   a batch whose edges touch cut vertices, new vertices and edges the
   cut removed (at a new weight), with repeats. The result must equal
   the builder that removes the cut vertices' edges and then takes the
   batch with [add_edge_min]. *)
let prop_cut_and_batch_match_builder =
  qtest ~count:60 "csr: add_edges ~n ~cut batch = cut, then add_edge_min"
    seed_arb (fun seed ->
      let st = rand_state seed in
      let n0 = 2 + Random.State.int st 40 in
      let g = random_graph ~st ~n:n0 ~extra_edges:(Random.State.int st 60) in
      let c = Csr.of_wgraph g in
      let n = n0 + Random.State.int st 4 in
      let vs = Array.init (Random.State.int st 6) (fun _ -> Random.State.int st n) in
      let cut = Array.make n false in
      Array.iter (fun v -> cut.(v) <- true) vs;
      let edge u v = { Wgraph.u; v; w = 0.1 +. Random.State.float st 1.0 } in
      let random_edge () =
        let u = Random.State.int st n in
        edge u ((u + 1 + Random.State.int st (n - 1)) mod n)
      in
      let rejoined =
        List.filter_map
          (fun (e : Wgraph.edge) ->
            if cut.(e.u) || cut.(e.v) then Some (edge e.u e.v) else None)
          (Wgraph.edges g)
      in
      let batch =
        Array.concat
          [
            Array.init (Random.State.int st 10) (fun _ -> random_edge ());
            Array.of_list rejoined;
            Array.map
              (fun v -> edge v ((v + 1) mod n))
              (Array.sub vs 0 (min 2 (Array.length vs)));
          ]
      in
      let batch =
        if Array.length batch > 0 then Array.append batch [| batch.(0) |]
        else batch
      in
      let h = Wgraph.create n in
      Wgraph.iter_edges g (fun u v w ->
          if not (cut.(u) || cut.(v)) then Wgraph.add_edge h u v w);
      Array.iter
        (fun (e : Wgraph.edge) -> ignore (Wgraph.add_edge_min h e.u e.v e.w))
        batch;
      let got = Csr.add_edges ~n ~cut:vs c batch
      and expected = Csr.of_wgraph h in
      got.Csr.off = expected.Csr.off
      && got.Csr.dst = expected.Csr.dst
      && bits got = bits expected)

let test_cut_rejects () =
  let c = Csr.of_wgraph (Wgraph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 1.0) ]) in
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "fewer vertices than the snapshot" true
    (rejects (fun () -> Csr.add_edges ~n:2 c [||]));
  Alcotest.(check bool) "vertex beyond n" true
    (rejects (fun () -> Csr.add_edges ~n:4 ~cut:[| 4 |] c [||]));
  Alcotest.(check bool) "negative vertex" true
    (rejects (fun () -> Csr.add_edges ~n:3 ~cut:[| -1 |] c [||]))

let test_of_arrays_rejects_malformed () =
  let rejects ~off ~dst ~wgt =
    try
      ignore (Csr.of_arrays ~off ~dst ~wgt);
      false
    with Invalid_argument _ -> true
  in
  let dst = [| 1; 0 |] and wgt = [| 1.0; 1.0 |] in
  Alcotest.(check bool) "offsets must span the arcs" true
    (rejects ~off:[| 0; 1; 1 |] ~dst ~wgt);
  Alcotest.(check bool) "offsets must be ascending" true
    (rejects ~off:[| 0; 2; 1; 2 |] ~dst:[| 1; 2 |] ~wgt);
  Alcotest.(check bool) "dst/wgt lengths must match" true
    (rejects ~off:[| 0; 1; 2 |] ~dst ~wgt:[| 1.0 |]);
  Alcotest.(check bool) "offset array must not be empty" true
    (rejects ~off:[||] ~dst:[||] ~wgt:[||]);
  Alcotest.(check bool) "arc targets must be vertices" true
    (rejects ~off:[| 0; 1; 2 |] ~dst:[| 1; 2 |] ~wgt);
  Alcotest.(check bool) "well-formed accepted" true
    (not (rejects ~off:[| 0; 1; 2 |] ~dst ~wgt))

let () =
  Alcotest.run "csr"
    [
      ( "structure",
        [
          prop_roundtrip;
          prop_adjacency_sorted;
          prop_mem_and_weight;
          prop_iter_edges_each_once;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "total weight" `Quick test_total_weight;
        ] );
      ( "algorithms",
        [ prop_dijkstra_agrees; prop_mst_agrees; prop_components_agree ] );
      ( "adopt",
        [
          prop_of_arrays_sorts;
          prop_of_arrays_sorts_shuffled;
          Alcotest.test_case "of_arrays sorts without allocating" `Quick
            test_of_arrays_sorts_without_allocating;
          Alcotest.test_case "of_arrays rejects malformed" `Quick
            test_of_arrays_rejects_malformed;
        ] );
      ( "region",
        [
          prop_induced_matches_builder;
          prop_region_runner_global_ids;
          Alcotest.test_case "region runner rejects bad regions" `Quick
            test_region_runner_rejects;
          prop_restrict_matches_induced;
        ] );
      ( "patch",
        [
          prop_add_edges_matches_builder;
          prop_cut_matches_builder;
          Alcotest.test_case "add_edges rejects bad sizes and cut vertices"
            `Quick test_cut_rejects;
          prop_cut_and_batch_match_builder;
        ] );
    ]
