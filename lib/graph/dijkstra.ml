(* Three relaxation loops serve every search in this module, and a
   fourth updates a distance row after its graph changed:

   - [unbounded]: the full single-source search on fresh plain arrays,
     for callers that want every distance (all-pairs analysis). It
     runs over an abstract neighbor iterator and the [Heap] module, and
     stays written that way: it is the independent reference the
     bit-identity tests hold the other two loops to;
   - [settle]: the bounded settle on a stamped workspace, under every
     bounded, ball, tree, multi-source and target entry; target
     entries may add a landmark potential, which makes it an A* search.
     Certification runs it once per source, stopping at the source's
     farthest base neighbour;
   - [hop_bounded]: the hop-and-length bounded search of Lemma 8, on
     the same workspace;
   - [update_row_csr]: a full search's row carried from one snapshot to
     the next, on the workspace heap: the oracle's landmark rows.

   [settle] and [hop_bounded] are first-order loops over arc slices: a
   target array, a weight array and a range. A [Csr.t] search passes
   the snapshot's own arrays; a [Wgraph.t] search copies each expanded
   vertex's hashtable slice into the workspace first. The indexed heap
   lives in the workspace too, and the A* potential is evaluated
   inline from the landmark table. No float crosses a function call
   inside either loop: a float argument is boxed unless the call is
   inlined, and the dev profile's [-opaque] stops inlining across
   modules. So a CSR search allocates nothing per settled vertex. *)

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

type landmarks = { table : float array; m : int }

(* ------------------------------------------------------------------ *)
(* Reusable epoch-stamped workspaces                                    *)
(* ------------------------------------------------------------------ *)

(* Bounded searches touch a small neighborhood, so they run on a
   workspace instead of fresh O(n) arrays: arrays are invalidated by
   bumping an epoch counter instead of being refilled, and the heap is
   emptied in time proportional to its leftover entries. One workspace
   serves one search at a time; [domain_workspace] hands every domain
   its own, so the parallel phase stages reuse scratch state without
   sharing it. *)

type workspace = {
  mutable dist : float array; (* valid at v iff stamp.(v) = epoch *)
  mutable stamp : int array;
  mutable mark : int array; (* per-round marks, valid iff = mark_epoch *)
  mutable touched : int array; (* settled vertices of the last search *)
  mutable par : int array; (* tree parents, valid where stamp = epoch *)
  mutable n_touched : int;
  mutable epoch : int;
  mutable mark_epoch : int;
  (* The indexed binary min-heap of [Heap], flattened: slot -> key,
     slot -> priority, key -> slot (-1 when absent). [hprio] has one
     slot more than the capacity: a caller writes the priority it
     offers into [hprio.(hsize)], the first free slot, and [offer]
     files it, so no priority is ever passed to a call. *)
  mutable hkey : int array;
  mutable hprio : float array;
  mutable hpos : int array;
  mutable hsize : int;
  (* A [Wgraph] vertex's arcs, copied in when the vertex is expanded. *)
  mutable arc_v : int array;
  mutable arc_w : float array;
  (* The hop-bounded search's frontier and next frontier. *)
  mutable front : int array;
  mutable next : int array;
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
    hkey = [||];
    hprio = [| 0.0 |];
    hpos = [||];
    hsize = 0;
    arc_v = [||];
    arc_w = [||];
    front = [||];
    next = [||];
  }

let ws_key = Domain.DLS.new_key create_workspace
let domain_workspace () = Domain.DLS.get ws_key

(* Ball buffers for [within_csr_into], one pair per domain, grown to
   the largest graph asked for: the per-bin covers and cluster graphs
   run a ball per center, and fresh buffers per call would be major-heap
   garbage of two graph-sized arrays each time. *)
let ball_key : (int array * float array) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref ([||], [||]))

let domain_ball_buffers n =
  let buf = Domain.DLS.get ball_key in
  if Array.length (fst !buf) < n then
    buf := (Array.make n 0, Array.make n 0.0);
  !buf

(* The plain entries run on a second per-domain workspace, never on
   [domain_workspace ()]: a caller may keep a tree in its own workspace
   across calls to them (the oracle's route reader walks one in
   place). *)
let plain_key = Domain.DLS.new_key create_workspace
let plain_workspace () = Domain.DLS.get plain_key

(* Grow to >= n and invalidate everything from the previous search.
   Fresh stamp arrays are all 0, so the epoch starts at 1. Every array
   holds at least n entries, so a search never grows one: a vertex has
   fewer than n arcs, a frontier and the heap at most n vertices. *)
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
    ws.hkey <- Array.make cap 0;
    ws.hprio <- Array.make (cap + 1) 0.0;
    ws.hpos <- Array.make cap (-1);
    ws.hsize <- 0;
    ws.arc_v <- Array.make cap 0;
    ws.arc_w <- Array.make cap 0.0;
    ws.front <- Array.make cap 0;
    ws.next <- Array.make cap 0
  end;
  ws.epoch <- ws.epoch + 1;
  ws.n_touched <- 0;
  for i = 0 to ws.hsize - 1 do
    ws.hpos.(ws.hkey.(i)) <- -1
  done;
  ws.hsize <- 0

let ws_get ws v = if ws.stamp.(v) = ws.epoch then ws.dist.(v) else infinity

(* The workspace may be larger than the graph, so range is checked
   against [n], not against the arrays. *)
let check_vertex ~n v =
  if v < 0 || v >= n then invalid_arg "Dijkstra: vertex out of range"

(* ------------------------------------------------------------------ *)
(* The workspace heap                                                   *)
(* ------------------------------------------------------------------ *)

(* [Heap]'s sifts with the moving entry held aside: the same strict
   comparisons in the same order, so every layout, and with it every
   tie between equal priorities, is [Heap]'s. The heap operations are
   inlined into the loops that call them: a ball settles a handful of
   vertices, and calls would be a tenth of its cost. *)
let[@inline] sift_up ws i =
  let key = ws.hkey and prio = ws.hprio and pos = ws.hpos in
  let k = key.(i) and p = prio.(i) in
  let i = ref i in
  while !i > 0 && p < prio.((!i - 1) / 2) do
    let j = (!i - 1) / 2 in
    key.(!i) <- key.(j);
    prio.(!i) <- prio.(j);
    pos.(key.(j)) <- !i;
    i := j
  done;
  key.(!i) <- k;
  prio.(!i) <- p;
  pos.(k) <- !i

let[@inline] sift_down ws i =
  let key = ws.hkey and prio = ws.hprio and pos = ws.hpos in
  let size = ws.hsize in
  let k = key.(i) and p = prio.(i) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let s = if l < size && prio.(l) < p then l else !i in
    let s =
      if r < size && prio.(r) < (if s = !i then p else prio.(s)) then r else s
    in
    if s = !i then moving := false
    else begin
      key.(!i) <- key.(s);
      prio.(!i) <- prio.(s);
      pos.(key.(s)) <- !i;
      i := s
    end
  done;
  key.(!i) <- k;
  prio.(!i) <- p;
  pos.(k) <- !i

(* [Heap.insert_or_decrease] of [v] at the priority the caller wrote to
   [hprio.(hsize)]. *)
let[@inline] offer ws v =
  let free = ws.hsize in
  let i = ws.hpos.(v) in
  if i < 0 then begin
    ws.hkey.(free) <- v;
    ws.hpos.(v) <- free;
    ws.hsize <- free + 1;
    sift_up ws free
  end
  else if ws.hprio.(free) < ws.hprio.(i) then begin
    ws.hprio.(i) <- ws.hprio.(free);
    sift_up ws i
  end

(* [Heap.pop_min]'s removal of the minimum, whose key and priority the
   caller has read from slot 0. *)
let[@inline] remove_min ws =
  let u = ws.hkey.(0) and last = ws.hsize - 1 in
  let k = ws.hkey.(last) in
  ws.hkey.(0) <- k;
  ws.hprio.(0) <- ws.hprio.(last);
  ws.hpos.(k) <- 0;
  ws.hpos.(u) <- -1;
  ws.hsize <- last;
  if last > 0 then sift_down ws 0

(* ------------------------------------------------------------------ *)
(* Arc slices                                                           *)
(* ------------------------------------------------------------------ *)

(* Where a search reads its arcs: a snapshot's own arrays, or a
   [Wgraph]'s hashtable slices, filtered by [keep] when given. *)
type arcs = Snapshot of Csr.t | Builder of Wgraph.t * (int -> bool) option

let n_of = function
  | Snapshot c -> Csr.n_vertices c
  | Builder (g, _) -> Wgraph.n_vertices g

(* The slice arrays a search reads: the snapshot's, or the workspace's
   arc scratch, which [arc_hi] refills per expanded vertex. *)
let arc_dst ws = function Snapshot c -> c.Csr.dst | Builder _ -> ws.arc_v
let arc_wgt ws = function Snapshot c -> c.Csr.wgt | Builder _ -> ws.arc_w
let arc_lo arcs u = match arcs with Snapshot c -> c.Csr.off.(u) | Builder _ -> 0

(* The end of [u]'s slice. A builder vertex's arcs, the kept ones
   under [keep], are copied into the scratch in [Hashtbl.iter] order:
   equal labels tie by relaxation order, so builder-side outputs (the
   greedy spanners among them) depend on it. *)
let arc_hi ws arcs u =
  match arcs with
  | Snapshot c -> c.Csr.off.(u + 1)
  | Builder (g, keep) ->
      let av = ws.arc_v and aw = ws.arc_w in
      let copy v w k =
        av.(k) <- v;
        aw.(k) <- w;
        k + 1
      in
      (match keep with
      | None -> Wgraph.fold_neighbors g u copy 0
      | Some keep ->
          Wgraph.fold_neighbors g u
            (fun v w k -> if keep v then copy v w k else k)
            0)

(* ------------------------------------------------------------------ *)
(* The bounded settle                                                   *)
(* ------------------------------------------------------------------ *)

(* Seeds source [s] at distance 0; a repeated source is a no-op. *)
let seed ws ~n s =
  check_vertex ~n s;
  if ws_get ws s > 0.0 then begin
    ws.dist.(s) <- 0.0;
    ws.stamp.(s) <- ws.epoch;
    ws.par.(s) <- -1;
    ws.hprio.(ws.hsize) <- 0.0;
    offer ws s
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

let alt_scale = 1.0 -. ldexp 1.0 (-30)

let check_landmarks ~n = function
  | Some { table; m } when m < 0 || Array.length table < n * m ->
      invalid_arg "Dijkstra: landmark table smaller than n x m"
  | Some _ | None -> ()

(* The bounded settle, run on a prepared and seeded workspace. It pops
   in nondecreasing-priority order until the heap runs dry, a popped
   priority exceeds [bound] (only a seed can, under a negative bound)
   or the last of the [targets] vertices marked in the current round
   is popped ([targets] = 0: no target stop). A relaxed label whose
   priority exceeds [bound] is not stored at all, neither label, stamp
   nor heap entry: it could never pop, so a ball pays for the arcs it
   settles, not for the frontier beyond it. The test is [not (p >
   bound)], the complement of the pop test, so a NaN bound still bounds
   nothing. The search appends every
   settled vertex to [touched.(0 .. n_touched - 1)], so results are
   read off the settle trace, never off an O(n) scan, and steady state
   allocates nothing. A vertex's priority is its label, plus the
   landmark potential toward [target] when [landmarks] are given
   (target entries only: the A* search toward the target). The
   relaxed label is read from [dist], never from the popped priority,
   and an improved label re-inserts its vertex even after it was
   popped, so a potential that rounding leaves a hair inconsistent
   costs a re-pop, never a wrong label. A re-popped vertex would repeat
   in [touched] and could overrun it, so an A* search records no
   settle trace, which is why ball, forest and certifier entries,
   which read it, take no landmarks. Without them a popped label is
   final, so every target's label is exact once the search stops.
   With [parents], [par.(v)] records the predecessor that last
   improved [v]; that never changes the relaxation sequence, so every
   entry point sees the same distances and settle order. *)
let settle ws arcs ~targets ~parents ~landmarks ~target ~bound =
  let astar, table, m =
    match landmarks with
    | None -> (false, [||], 0)
    | Some { table; m } -> (true, table, m)
  in
  (* h(v) = max(0, (1 - 2^-30) max_i |D_i(target) - D_i(v)| - 2^-30
     bound), a NaN term counting as 0 (see the interface). *)
  let tb = if astar then target * m else 0 in
  let shift = ldexp bound (-30) in
  let dst = arc_dst ws arcs and wgt = arc_wgt ws arcs in
  let off = match arcs with Snapshot c -> c.Csr.off | Builder _ -> [||] in
  let snapshot = Array.length off > 0 in
  let dist = ws.dist and stamp = ws.stamp and epoch = ws.epoch in
  let pending = ref targets in
  let finished = ref false in
  while (not !finished) && ws.hsize > 0 do
    let u = ws.hkey.(0) in
    let pu = ws.hprio.(0) in
    remove_min ws;
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
      if not astar then begin
        ws.touched.(ws.n_touched) <- u;
        ws.n_touched <- ws.n_touched + 1
      end;
      let du = dist.(u) in
      let lo = if snapshot then off.(u) else 0 in
      let hi = if snapshot then off.(u + 1) else arc_hi ws arcs u in
      for k = lo to hi - 1 do
        let v = dst.(k) in
        let dv = du +. wgt.(k) in
        (* A priority is never below its label, so a label above the
           bound is dropped before anything is read. *)
        if
          (not (dv > bound))
          && dv < (if stamp.(v) = epoch then dist.(v) else infinity)
        then begin
          let free = ws.hsize in
          if not astar then ws.hprio.(free) <- dv
          else begin
            let base = v * m in
            let best = ref 0.0 in
            for i = 0 to m - 1 do
              let d = Float.abs (table.(tb + i) -. table.(base + i)) in
              if d > !best then best := d
            done;
            let h = (alt_scale *. !best) -. shift in
            ws.hprio.(free) <- dv +. (if h > 0.0 then h else 0.0)
          end;
          if not (ws.hprio.(free) > bound) then begin
            dist.(v) <- dv;
            stamp.(v) <- epoch;
            if parents then ws.par.(v) <- u;
            offer ws v
          end
        end
      done
    end
  done

(* One target, or none when [target] is -1. *)
let settle_from ?landmarks ws arcs src ~target ~parents ~bound =
  let n = n_of arcs in
  check_landmarks ~n landmarks;
  ws_prepare ws n;
  seed ws ~n src;
  new_round ws;
  let targets = if target < 0 then 0 else mark ws ~n target in
  settle ws arcs ~targets ~parents ~landmarks ~target ~bound

(* Early-exits at [dst]. Nothing above [bound] is stored, so a target
   beyond it reads [infinity]: "no path within [bound]". *)
let upto ?landmarks ws arcs src dst ~bound =
  check_vertex ~n:(n_of arcs) dst;
  if src = dst then 0.0
  else begin
    settle_from ?landmarks ws arcs src ~target:dst ~parents:false ~bound;
    ws_get ws dst
  end

let ball ws arcs src ~bound =
  settle_from ws arcs src ~target:(-1) ~parents:false ~bound;
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

(* ------------------------------------------------------------------ *)
(* The hop-bounded search                                               *)
(* ------------------------------------------------------------------ *)

(* dist.(v) = best length of a path src->v with at most h hops, for the
   current round h. Only vertices improved in the previous round need
   relaxing, so the frontier holds just those, deduped by the round
   number stamped into [mark], and each round walks it newest first. *)
let hop_bounded ws arcs src dst ~max_hops ~bound =
  let n = n_of arcs in
  check_vertex ~n src;
  check_vertex ~n dst;
  if src = dst then 0.0
  else begin
    ws_prepare ws n;
    let dist = ws.dist and stamp = ws.stamp and epoch = ws.epoch in
    dist.(src) <- 0.0;
    stamp.(src) <- epoch;
    let dst_arr = arc_dst ws arcs and wgt = arc_wgt ws arcs in
    ws.front.(0) <- src;
    let front = ref ws.front and next = ref ws.next in
    let n_front = ref 1 and h = ref 0 in
    while !h < max_hops && !n_front > 0 do
      incr h;
      new_round ws;
      let round = ws.mark_epoch and f = !front and nx = !next in
      let n_next = ref 0 in
      for j = !n_front - 1 downto 0 do
        let u = f.(j) in
        let du = dist.(u) in
        let lo = arc_lo arcs u in
        let hi = arc_hi ws arcs u in
        for k = lo to hi - 1 do
          let v = dst_arr.(k) in
          let dv = du +. wgt.(k) in
          if
            dv < (if stamp.(v) = epoch then dist.(v) else infinity)
            && dv <= bound
          then begin
            dist.(v) <- dv;
            stamp.(v) <- epoch;
            if ws.mark.(v) <> round then begin
              ws.mark.(v) <- round;
              nx.(!n_next) <- v;
              incr n_next
            end
          end
        done
      done;
      front := nx;
      next := f;
      n_front := !n_next
    done;
    ws_get ws dst
  end

(* ------------------------------------------------------------------ *)
(* Wgraph entries                                                       *)
(* ------------------------------------------------------------------ *)

let distances g src =
  unbounded ~n:(Wgraph.n_vertices g) ~iter:(Wgraph.iter_neighbors g) src

(* [keep] filters neighbours, so the search runs on the subgraph
   induced by [src] and the kept vertices. *)
let distance_upto_ws ?keep ws g src dst ~bound =
  upto ws (Builder (g, keep)) src dst ~bound

let distance_upto g src dst ~bound =
  distance_upto_ws (plain_workspace ()) g src dst ~bound

let distance g src dst = distance_upto g src dst ~bound:infinity
let within_ws ws g src ~bound = ball ws (Builder (g, None)) src ~bound
let within g src ~bound = within_ws (plain_workspace ()) g src ~bound

(* Read off a tree search from [src] that stopped at [dst]: every
   vertex on the chain settled before [dst], so its parent is final. *)
let path g src dst =
  let ws = plain_workspace () in
  check_vertex ~n:(Wgraph.n_vertices g) dst;
  if src = dst then Some [ src ]
  else begin
    settle_from ws (Builder (g, None)) src ~target:dst ~parents:true
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
  hop_bounded (plain_workspace ()) (Builder (g, None)) src dst ~max_hops ~bound

(* ------------------------------------------------------------------ *)
(* Csr entries                                                          *)
(* ------------------------------------------------------------------ *)

let distances_csr c src =
  unbounded ~n:(Csr.n_vertices c) ~iter:(Csr.iter_neighbors c) src

(* The settle a full search would run, cut at the last target's pop:
   labels never depend on how ties were broken, so each target reads
   [distances_csr]'s value bit for bit. No target, no search. *)
let distances_to_csr c src ~targets =
  let n = Csr.n_vertices c and ws = plain_workspace () in
  ws_prepare ws n;
  seed ws ~n src;
  new_round ws;
  let pending = ref 0 in
  for i = 0 to Array.length targets - 1 do
    pending := !pending + mark ws ~n targets.(i)
  done;
  if !pending > 0 then
    settle ws (Snapshot c) ~targets:!pending ~parents:false ~landmarks:None
      ~target:(-1) ~bound:infinity;
  Array.map (ws_get ws) targets

let distance_upto_csr_ws ?landmarks ws c src dst ~bound =
  upto ?landmarks ws (Snapshot c) src dst ~bound

let distance_upto_csr c src dst ~bound =
  distance_upto_csr_ws (plain_workspace ()) c src dst ~bound

let distance_csr c src dst = distance_upto_csr c src dst ~bound:infinity
let within_csr_ws ws c src ~bound = ball ws (Snapshot c) src ~bound
let within_csr c src ~bound = within_csr_ws (plain_workspace ()) c src ~bound

let hop_bounded_distance_csr_ws ws c src dst ~max_hops ~bound =
  hop_bounded ws (Snapshot c) src dst ~max_hops ~bound

let hop_bounded_distance_csr c src dst ~max_hops ~bound =
  hop_bounded_distance_csr_ws (plain_workspace ()) c src dst ~max_hops ~bound

let within_csr_into ws c src ~bound ~out_v ~out_d =
  settle_from ws (Snapshot c) src ~target:(-1) ~parents:false ~bound;
  read_ball ws ~name:"Dijkstra.within_csr_into" ~out_v ~out_d

(* Leaves the tree in the workspace for [ws_parent]: the oracle's route
   reader walks it in place instead of copying it out. The search stops
   when [target] pops, so every vertex on the target's parent chain
   settled before it and its parent is final. *)
let settle_parents_csr_ws ?landmarks ws c src ~target ~bound =
  check_vertex ~n:(Csr.n_vertices c) target;
  settle_from ?landmarks ws (Snapshot c) src ~target ~parents:true ~bound

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
  for i = 0 to Array.length srcs - 1 do
    seed ws ~n srcs.(i)
  done;
  settle ws (Snapshot c) ~targets:0 ~parents:true ~landmarks:None ~target:(-1)
    ~bound;
  let k = read_ball ws ~name:"Dijkstra.within_multi_csr_into" ~out_v ~out_d in
  for i = 0 to k - 1 do
    out_p.(i) <- ws.par.(out_v.(i))
  done;
  k

(* ------------------------------------------------------------------ *)
(* The row update                                                       *)
(* ------------------------------------------------------------------ *)

(* A scratch label is the least [fl(D(p) + w)] over the neighbours: a
   neighbour popped after [x] offers at least [D(x)], since adding a
   positive weight never rounds below the sum's first term. A label
   that some path yields, rounding at each step, is never below the
   scratch label, by induction along the path. So labels that some
   path yields and that no arc can lower are the scratch labels, bit
   for bit: lower than a scratch label would mean lower along its
   scratch tree path. The update keeps that pair of facts.

   The deletion step resets every vertex whose old label no path in
   [after] may still yield. It pops candidates in increasing old label
   from the workspace heap. A candidate keeps its label when an arc of
   [after] is tight into it ([fl(D(p) + w) = D(x)]) from a vertex with
   a strictly smaller label that was not reset: that vertex's status
   is final by then, and the strict order makes the supports a chain
   that ends at the source. A vertex no candidate's reset reaches still
   has its old tree parent over an unchanged arc. Equal labels (an arc
   too light to move a label) never support, so a reset cycle cannot
   keep itself. [stamp] flags the reset vertices, [touched] lists them
   and [mark] enqueues a candidate once: a later reset with an equal
   label cannot have supported it.

   The re-settle step seeds each reset vertex from its kept neighbours
   and each inserted arc's head from its tail, then pops: every seed
   and every relaxation is a path's label, and once the heap runs dry
   no arc can lower any label (a kept vertex already met its unchanged
   arcs in [before]). *)
let update_row_csr ws ~before ~after ~removed ~added ~src ~rows ~col =
  let n = Csr.n_vertices after and n0 = Csr.n_vertices before in
  if n < n0 then invalid_arg "Dijkstra.update_row_csr: the snapshot shrank";
  check_vertex ~n src;
  let { table; m } = rows in
  if col < 0 || col >= m || Array.length table < n * m then
    invalid_arg "Dijkstra.update_row_csr: no such column";
  ws_prepare ws n;
  new_round ws;
  let stamp = ws.stamp and epoch = ws.epoch in
  let mark = ws.mark and round = ws.mark_epoch in
  (* Deletions. *)
  let enqueue v =
    if mark.(v) <> round && v <> src then begin
      mark.(v) <- round;
      ws.hprio.(ws.hsize) <- table.((v * m) + col);
      offer ws v
    end
  in
  Array.iter
    (fun (e : Wgraph.edge) ->
      let du = table.((e.u * m) + col) and dv = table.((e.v * m) + col) in
      if dv < infinity && du +. e.w = dv then enqueue e.v;
      if du < infinity && dv +. e.w = du then enqueue e.u)
    removed;
  while ws.hsize > 0 do
    let x = ws.hkey.(0) in
    remove_min ws;
    let dx = table.((x * m) + col) in
    let k = ref after.Csr.off.(x) and hi = after.Csr.off.(x + 1) in
    let kept = ref false in
    while (not !kept) && !k < hi do
      let p = after.Csr.dst.(!k) in
      let dp = table.((p * m) + col) in
      if dp < dx && stamp.(p) <> epoch && dp +. after.Csr.wgt.(!k) = dx then
        kept := true;
      incr k
    done;
    if not !kept then begin
      stamp.(x) <- epoch;
      ws.touched.(ws.n_touched) <- x;
      ws.n_touched <- ws.n_touched + 1;
      if x < n0 then
        for k = before.Csr.off.(x) to before.Csr.off.(x + 1) - 1 do
          let y = before.Csr.dst.(k) in
          let dy = table.((y * m) + col) in
          if dy < infinity && dx +. before.Csr.wgt.(k) = dy then enqueue y
        done
    end
  done;
  (* Re-settle. *)
  let touched = ws.touched in
  for i = 0 to ws.n_touched - 1 do
    table.((touched.(i) * m) + col) <- infinity
  done;
  for i = 0 to ws.n_touched - 1 do
    let x = touched.(i) in
    let best = ref infinity in
    for k = after.Csr.off.(x) to after.Csr.off.(x + 1) - 1 do
      let p = after.Csr.dst.(k) in
      if stamp.(p) <> epoch then begin
        let d = table.((p * m) + col) +. after.Csr.wgt.(k) in
        if d < !best then best := d
      end
    done;
    if !best < infinity then begin
      table.((x * m) + col) <- !best;
      ws.hprio.(ws.hsize) <- !best;
      offer ws x
    end
  done;
  Array.iter
    (fun (e : Wgraph.edge) ->
      for dir = 0 to 1 do
        let a = if dir = 0 then e.u else e.v in
        let b = if dir = 0 then e.v else e.u in
        let d = table.((a * m) + col) +. e.w in
        if d < table.((b * m) + col) then begin
          table.((b * m) + col) <- d;
          ws.hprio.(ws.hsize) <- d;
          offer ws b
        end
      done)
    added;
  while ws.hsize > 0 do
    let u = ws.hkey.(0) in
    remove_min ws;
    let du = table.((u * m) + col) in
    for k = after.Csr.off.(u) to after.Csr.off.(u + 1) - 1 do
      let v = after.Csr.dst.(k) in
      let d = du +. after.Csr.wgt.(k) in
      if d < table.((v * m) + col) then begin
        table.((v * m) + col) <- d;
        ws.hprio.(ws.hsize) <- d;
        offer ws v
      end
    done
  done
