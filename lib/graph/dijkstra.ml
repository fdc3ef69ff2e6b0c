(* Three relaxation loops serve every search in this module, each
   written once against an abstract neighbor iterator and instantiated
   over the mutable hashtable-backed [Wgraph.t] (builder-side callers)
   and over immutable [Csr.t] snapshots (the hot read paths):

   - [unbounded]: the full single-source search on fresh plain arrays,
     for callers that want every distance (all-pairs analysis);
   - [settle]: the bounded settle on a stamped workspace, under every
     bounded, ball, tree, multi-source and target entry; target
     entries may add a potential, which makes it an A* search.
     Certification runs it once per source, stopping at the source's
     farthest base neighbour;
   - [hop_bounded]: the hop-and-length bounded search of Lemma 8, on
     the same workspace. *)

let unbounded ~n ~iter src =
  let dist = Array.make n infinity in
  let heap = Heap.create n in
  dist.(src) <- 0.0;
  Heap.insert heap src 0.0;
  while not (Heap.is_empty heap) do
    let u, du = Heap.pop_min heap in
    (* A popped label is final; stale heap entries cannot exist because
       decrease-key updates in place. *)
    iter u (fun v w ->
        let dv = du +. w in
        if dv < dist.(v) then begin
          dist.(v) <- dv;
          Heap.insert_or_decrease heap v dv
        end)
  done;
  dist

(* ------------------------------------------------------------------ *)
(* Reusable epoch-stamped workspaces                                    *)
(* ------------------------------------------------------------------ *)

(* Bounded searches touch a small neighborhood, so they run on a
   workspace instead of fresh O(n) arrays: arrays are invalidated by
   bumping an epoch counter instead of being refilled, and the heap is
   recycled with [Heap.clear] (cost: leftover entries only). One
   workspace serves one search at a time; [domain_workspace] hands
   every domain its own, so the parallel phase stages reuse scratch
   state without sharing it. *)

type workspace = {
  mutable dist : float array; (* valid at v iff stamp.(v) = epoch *)
  mutable stamp : int array;
  mutable mark : int array; (* per-round marks, valid iff = mark_epoch *)
  mutable touched : int array; (* settled vertices of the last search *)
  mutable par : int array; (* tree parents, valid where stamp = epoch *)
  mutable n_touched : int;
  mutable epoch : int;
  mutable mark_epoch : int;
  mutable heap : Heap.t;
}

let create_workspace () =
  {
    dist = [||];
    stamp = [||];
    mark = [||];
    touched = [||];
    par = [||];
    n_touched = 0;
    epoch = 0;
    mark_epoch = 0;
    heap = Heap.create 0;
  }

let ws_key = Domain.DLS.new_key create_workspace
let domain_workspace () = Domain.DLS.get ws_key

(* The plain entries run on a second per-domain workspace, never on
   [domain_workspace ()]: a caller may keep a tree in its own workspace
   across calls to them (the oracle's route reader walks one in
   place). *)
let plain_key = Domain.DLS.new_key create_workspace
let plain_workspace () = Domain.DLS.get plain_key

(* Grow to >= n and invalidate everything from the previous search.
   Fresh stamp arrays are all 0, so the epoch starts at 1. *)
let ws_prepare ws n =
  if Array.length ws.dist < n then begin
    let cap = max n (2 * Array.length ws.dist) in
    ws.dist <- Array.make cap infinity;
    ws.stamp <- Array.make cap 0;
    ws.mark <- Array.make cap 0;
    ws.touched <- Array.make cap 0;
    ws.par <- Array.make cap (-1);
    ws.epoch <- 0;
    ws.mark_epoch <- 0;
    ws.heap <- Heap.create cap
  end;
  ws.epoch <- ws.epoch + 1;
  ws.n_touched <- 0;
  Heap.clear ws.heap

let ws_get ws v = if ws.stamp.(v) = ws.epoch then ws.dist.(v) else infinity

let ws_set ws v d =
  ws.dist.(v) <- d;
  ws.stamp.(v) <- ws.epoch

(* The workspace may be larger than the graph, so range is checked
   against [n], not against the arrays. *)
let check_vertex ~n v =
  if v < 0 || v >= n then invalid_arg "Dijkstra: vertex out of range"

(* Seeds source [s] at distance 0; a repeated source is a no-op. *)
let seed ws ~n s =
  check_vertex ~n s;
  if ws_get ws s > 0.0 then begin
    ws_set ws s 0.0;
    ws.par.(s) <- -1;
    Heap.insert_or_decrease ws.heap s 0.0
  end

(* Opens a new mark round; [settle] waits for the vertices marked in
   it. *)
let new_round ws = ws.mark_epoch <- ws.mark_epoch + 1

(* Marks target [v] in the current round: 1 when newly marked, 0 for a
   repeat, so a repeated target is waited for once. *)
let mark ws ~n v =
  check_vertex ~n v;
  if ws.mark.(v) = ws.mark_epoch then 0
  else begin
    ws.mark.(v) <- ws.mark_epoch;
    1
  end

(* The bounded settle, run on a prepared and seeded workspace. It pops
   in nondecreasing-priority order until a popped priority exceeds
   [bound] or the last of the [targets] vertices marked in the current
   round is popped ([targets] = 0: no target stop), and appends every
   settled vertex to [touched.(0 .. n_touched - 1)], so results are
   read off the settle trace, never off an O(n) scan, and steady state
   allocates nothing. A vertex's priority is its label, plus
   [potential] of it when one is given (target entries only: the A*
   search toward the target). The relaxed label is read from [dist],
   never from the popped priority, and an improved label re-inserts
   its vertex even after it was popped, so a potential that rounding
   leaves a hair inconsistent costs a re-pop, never a wrong label. A
   re-popped vertex would repeat in [touched] and could overrun it, so
   an A* search records no settle trace, which is why ball, forest and
   certifier entries, which read it, take no potential. Without one a
   popped label is final, so every target's label is exact once the
   search stops. With
   [parents], [par.(v)] records the predecessor that last improved
   [v]; that never changes the relaxation sequence, so every entry
   point sees the same distances and settle order. *)
let settle ws ~iter ~targets ~parents ~potential ~bound =
  let pending = ref targets in
  let finished = ref false in
  while (not !finished) && not (Heap.is_empty ws.heap) do
    let u, pu = Heap.pop_min ws.heap in
    let last_target =
      !pending > 0
      && ws.mark.(u) = ws.mark_epoch
      && begin
           decr pending;
           !pending = 0
         end
    in
    if pu > bound || last_target then finished := true
    else begin
      (match potential with
      | None ->
          ws.touched.(ws.n_touched) <- u;
          ws.n_touched <- ws.n_touched + 1
      | Some _ -> ());
      let du = ws.dist.(u) in
      iter u (fun v w ->
          let dv = du +. w in
          if dv < ws_get ws v then begin
            ws_set ws v dv;
            if parents then ws.par.(v) <- u;
            Heap.insert_or_decrease ws.heap v
              (match potential with None -> dv | Some h -> dv +. h v)
          end)
    end
  done

(* One target, or none when [target] is -1. *)
let settle_from ?potential ws ~n ~iter src ~target ~parents ~bound =
  ws_prepare ws n;
  seed ws ~n src;
  new_round ws;
  let targets = if target < 0 then 0 else mark ws ~n target in
  settle ws ~iter ~targets ~parents ~potential ~bound

(* Early-exits at [dst]. A value above [bound] is a tentative frontier
   label or [infinity], both meaning "no path within [bound]". *)
let upto ?potential ws ~n ~iter src dst ~bound =
  check_vertex ~n dst;
  if src = dst then 0.0
  else begin
    settle_from ?potential ws ~n ~iter src ~target:dst ~parents:false ~bound;
    ws_get ws dst
  end

let ball ws ~n ~iter src ~bound =
  settle_from ws ~n ~iter src ~target:(-1) ~parents:false ~bound;
  let acc = ref [] in
  for i = ws.n_touched - 1 downto 0 do
    let v = ws.touched.(i) in
    acc := (v, ws.dist.(v)) :: !acc
  done;
  !acc

(* Copies the settle trace into caller-owned buffers: the hot parallel
   stages (cluster graphs, covers) never materialize an assoc list per
   center, since list cells were what serialized the multicore minor
   GC when many domains searched at once. *)
let read_ball ws ~name ~out_v ~out_d =
  let k = ws.n_touched in
  if Array.length out_v < k || Array.length out_d < k then
    invalid_arg (name ^ ": result buffers too small");
  for i = 0 to k - 1 do
    let v = ws.touched.(i) in
    out_v.(i) <- v;
    out_d.(i) <- ws.dist.(v)
  done;
  k

(* dist.(v) = best length of a path src->v with at most h hops, for the
   current round h. Only vertices improved in the previous round need
   relaxing, so we keep an explicit frontier; the round number stamped
   into [mark] dedupes it without a per-round hashtable. *)
let hop_bounded ws ~n ~iter src dst ~max_hops ~bound =
  check_vertex ~n src;
  check_vertex ~n dst;
  if src = dst then 0.0
  else begin
    ws_prepare ws n;
    ws_set ws src 0.0;
    let frontier = ref [ src ] in
    let h = ref 0 in
    while !h < max_hops && !frontier <> [] do
      incr h;
      ws.mark_epoch <- ws.mark_epoch + 1;
      let improved = ref [] in
      List.iter
        (fun u ->
          let du = ws_get ws u in
          iter u (fun v w ->
              let dv = du +. w in
              if dv < ws_get ws v && dv <= bound then begin
                ws_set ws v dv;
                if ws.mark.(v) <> ws.mark_epoch then begin
                  ws.mark.(v) <- ws.mark_epoch;
                  improved := v :: !improved
                end
              end))
        !frontier;
      frontier := !improved
    done;
    ws_get ws dst
  end

(* ------------------------------------------------------------------ *)
(* Wgraph instantiation                                                 *)
(* ------------------------------------------------------------------ *)

let wg_iter g u f = Wgraph.iter_neighbors g u f

let distances g src = unbounded ~n:(Wgraph.n_vertices g) ~iter:(wg_iter g) src

(* [keep] filters neighbours, so the search runs on the subgraph
   induced by [src] and the kept vertices. *)
let distance_upto_ws ?keep ws g src dst ~bound =
  let iter =
    match keep with
    | None -> wg_iter g
    | Some keep ->
        fun u f -> Wgraph.iter_neighbors g u (fun v w -> if keep v then f v w)
  in
  upto ws ~n:(Wgraph.n_vertices g) ~iter src dst ~bound

let distance_upto g src dst ~bound =
  distance_upto_ws (plain_workspace ()) g src dst ~bound

let distance g src dst = distance_upto g src dst ~bound:infinity

let within_ws ws g src ~bound =
  ball ws ~n:(Wgraph.n_vertices g) ~iter:(wg_iter g) src ~bound

let within g src ~bound = within_ws (plain_workspace ()) g src ~bound

(* Read off a tree search from [src] that stopped at [dst]: every
   vertex on the chain settled before [dst], so its parent is final. *)
let path g src dst =
  let n = Wgraph.n_vertices g and ws = plain_workspace () in
  check_vertex ~n dst;
  if src = dst then Some [ src ]
  else begin
    settle_from ws ~n ~iter:(wg_iter g) src ~target:dst ~parents:true
      ~bound:infinity;
    if ws_get ws dst = infinity then None
    else begin
      let rec walk v acc =
        if v = src then v :: acc else walk ws.par.(v) (v :: acc)
      in
      Some (walk dst [])
    end
  end

let hop_bounded_distance g src dst ~max_hops ~bound =
  hop_bounded (plain_workspace ()) ~n:(Wgraph.n_vertices g) ~iter:(wg_iter g)
    src dst ~max_hops ~bound

(* ------------------------------------------------------------------ *)
(* Csr instantiation                                                    *)
(* ------------------------------------------------------------------ *)

let csr_iter c u f = Csr.iter_neighbors c u f

let distances_csr c src = unbounded ~n:(Csr.n_vertices c) ~iter:(csr_iter c) src

(* The settle a full search would run, cut at the last target's pop:
   labels never depend on how ties were broken, so each target reads
   [distances_csr]'s value bit for bit. No target, no search. *)
let distances_to_csr c src ~targets =
  let n = Csr.n_vertices c and ws = plain_workspace () in
  ws_prepare ws n;
  seed ws ~n src;
  new_round ws;
  let pending = Array.fold_left (fun k v -> k + mark ws ~n v) 0 targets in
  if pending > 0 then
    settle ws ~iter:(csr_iter c) ~targets:pending ~parents:false
      ~potential:None ~bound:infinity;
  Array.map (ws_get ws) targets

let distance_upto_csr_ws ?potential ws c src dst ~bound =
  upto ?potential ws ~n:(Csr.n_vertices c) ~iter:(csr_iter c) src dst ~bound

let distance_upto_csr c src dst ~bound =
  distance_upto_csr_ws (plain_workspace ()) c src dst ~bound

let distance_csr c src dst = distance_upto_csr c src dst ~bound:infinity

let within_csr_ws ws c src ~bound =
  ball ws ~n:(Csr.n_vertices c) ~iter:(csr_iter c) src ~bound

let within_csr c src ~bound = within_csr_ws (plain_workspace ()) c src ~bound

let hop_bounded_distance_csr_ws ws c src dst ~max_hops ~bound =
  hop_bounded ws ~n:(Csr.n_vertices c) ~iter:(csr_iter c) src dst ~max_hops
    ~bound

let hop_bounded_distance_csr c src dst ~max_hops ~bound =
  hop_bounded_distance_csr_ws (plain_workspace ()) c src dst ~max_hops ~bound

let within_csr_into ws c src ~bound ~out_v ~out_d =
  settle_from ws ~n:(Csr.n_vertices c) ~iter:(csr_iter c) src ~target:(-1)
    ~parents:false ~bound;
  read_ball ws ~name:"Dijkstra.within_csr_into" ~out_v ~out_d

(* Leaves the tree in the workspace for [ws_parent]: the oracle's route
   reader walks it in place instead of copying it out. The search stops
   when [target] pops, so every vertex on the target's parent chain
   settled before it and its parent is final. *)
let settle_parents_csr_ws ?potential ws c src ~target ~bound =
  let n = Csr.n_vertices c in
  check_vertex ~n target;
  settle_from ?potential ws ~n ~iter:(csr_iter c) src ~target ~parents:true
    ~bound

let ws_parent ws v = if ws.stamp.(v) = ws.epoch then ws.par.(v) else -1

(* Every source seeded at distance 0, so one settle grows the whole
   forest: each vertex within [bound] of some source hangs off the
   nearest one, and a parent always settles before its child. This is
   the oracle's cluster forest, and from one source each row of its
   center-graph tables. *)
let within_multi_csr_into ws c ~srcs ~bound ~out_v ~out_d ~out_p =
  let n = Csr.n_vertices c in
  if Array.length out_v < n || Array.length out_d < n || Array.length out_p < n
  then invalid_arg "Dijkstra.within_multi_csr_into: result buffers too small";
  ws_prepare ws n;
  Array.iter (seed ws ~n) srcs;
  settle ws ~iter:(csr_iter c) ~targets:0 ~parents:true ~potential:None
    ~bound;
  let k = read_ball ws ~name:"Dijkstra.within_multi_csr_into" ~out_v ~out_d in
  for i = 0 to k - 1 do
    out_p.(i) <- ws.par.(out_v.(i))
  done;
  k
