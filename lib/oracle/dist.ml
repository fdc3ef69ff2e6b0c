module Csr = Graph.Csr
module Wgraph = Graph.Wgraph
module Dijkstra = Graph.Dijkstra
module Pool = Parallel.Pool

(* Flat-array oracle over one frozen snapshot. Center indices (not
   vertex ids) index every k-sized table; [dmat] / [next_center] are
   k x k row-major. The clusters are the trees of one shortest-path
   forest grown from every center at once, so [up] chains stay inside
   their cluster. The portal table is three parallel arrays sorted by
   center pair, so the route expansion finds the spanner edge behind
   each center-graph hop by binary search. [landmarks] is an n x m
   vertex-major table: row v holds v's distance to each of the m
   landmark centers, the rows the searches' A* potential reads and
   every table answer's certificate. *)
type t = {
  csr : Csr.t;
  eps : float;
  radius : float;
  near_bound : float;
  k : int;
  centers : int array; (* center index -> vertex id *)
  center_ix : int array; (* vertex -> center index, -1 = isolated *)
  dist_to_center : float array; (* vertex -> exact d(v, own center) *)
  up : int array; (* vertex -> forest parent toward own center, -1 at centers *)
  dmat : float array; (* k*k center-graph distances *)
  next_center : int array; (* k*k first center hop, -1 = unreachable *)
  portal_key : int array; (* sorted adjacent pairs, a * k + b with a < b *)
  portal_lo : int array; (* portal endpoint inside cluster a *)
  portal_hi : int array; (* portal endpoint inside cluster b *)
  landmarks : Dijkstra.landmarks; (* n*m, infinity = unreachable *)
  build_seconds : float;
}

let csr t = t.csr

type stats = {
  n : int;
  n_edges : int;
  n_clusters : int;
  radius : float;
  eps : float;
  near_bound : float;
  build_seconds : float;
  table_words : int;
}

let stats t =
  {
    n = Csr.n_vertices t.csr;
    n_edges = Csr.n_edges t.csr;
    n_clusters = t.k;
    radius = t.radius;
    eps = t.eps;
    near_bound = t.near_bound;
    build_seconds = t.build_seconds;
    table_words =
      Array.length t.centers + Array.length t.center_ix
      + Array.length t.dist_to_center + Array.length t.up
      + Array.length t.dmat + Array.length t.next_center
      + Array.length t.portal_key + Array.length t.portal_lo
      + Array.length t.portal_hi + Array.length t.landmarks.table;
  }

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let m_builds = Obs.Metrics.counter "oracle.builds"
let m_repairs = Obs.Metrics.counter "oracle.repairs"
let m_repair_fallbacks = Obs.Metrics.counter "oracle.repair_fallbacks"
let m_queries = Obs.Metrics.counter "oracle.queries"
let m_batches = Obs.Metrics.counter "oracle.batches"
let g_batch_qps = Obs.Metrics.gauge "oracle.last_batch_qps"

(* Wall-time gauges live in [Service], labelled per service — a
   process-global "last build anywhere" gauge just lets two services
   clobber each other (counters above are additive, so they stay). *)

(* Per-query latency is only meaningful averaged over a batch: a far
   answer is ~100ns and timing each one would cost more than the
   answer. One observation per batch, of the mean. *)
let m_query_latency =
  Obs.Metrics.histogram "oracle.query_mean_latency_s"
    ~buckets:(Obs.Metrics.exp_buckets ~lo:1e-8 ~hi:1e-2 ~per_decade:2)

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

let cluster_cap n = max 16 (int_of_float (4.0 *. sqrt (float_of_int n)))

(* Pick the centers by radius doubling: start at four mean edge weights
   and double until the greedy cover fits under the cluster cap, so k
   stays O(sqrt n) whatever the weight scale. Everything is a pure
   function of the snapshot — no randomness, no schedule dependence. *)
let find_cover j =
  let n = Csr.n_vertices j and m = Csr.n_edges j in
  let mean_w = if m = 0 then 0.0 else Csr.total_weight j /. float_of_int m in
  let greedy rho max_clusters =
    Topo.Cluster_cover.compute_csr_limited j ~radius:rho ~max_clusters
      ~covered:(Array.make n false)
  in
  let rec attempt rho attempts =
    if attempts = 60 then
      (* Radius exceeds the total edge weight: clusters are whole
         components and the count cannot shrink further — accept. *)
      (Option.get (greedy rho max_int), rho)
    else
      match greedy rho (cluster_cap n) with
      | Some centers -> (centers, rho)
      | None -> attempt (rho *. 2.0) (attempts + 1)
  in
  attempt (4.0 *. mean_w) 0

(* The clusters: one search seeded with every center at 0 and bounded
   by the radius assigns each vertex to its nearest center. A parent
   settles before its child, so one pass over the settle trace carries
   each root's index down its tree; [up] is the forest parent and
   [dist_to_center] the label, so every up-chain stays in its cluster
   and ends at its own center after exactly [dist_to_center]. Vertices
   farther than the radius from every center stay unassigned. The
   search is sequential, so the result is schedule-free. *)
let grow_forest j ~centers ~radius =
  let n = Csr.n_vertices j in
  let center_ix = Array.make n (-1) in
  let dist_to_center = Array.make n infinity in
  let up = Array.make n (-1) in
  Array.iteri (fun ix c -> center_ix.(c) <- ix) centers;
  let out_v = Array.make n 0 in
  let out_d = Array.make n 0.0 in
  let out_p = Array.make n 0 in
  let cnt =
    Dijkstra.within_multi_csr_into (Dijkstra.domain_workspace ()) j
      ~srcs:centers ~bound:radius ~out_v ~out_d ~out_p
  in
  for i = 0 to cnt - 1 do
    let v = out_v.(i) and p = out_p.(i) in
    dist_to_center.(v) <- out_d.(i);
    if p >= 0 then begin
      up.(v) <- p;
      center_ix.(v) <- center_ix.(p)
    end
  done;
  (center_ix, dist_to_center, up)

(* Center-graph stage, shared by [build] and [repair]: scan the
   snapshot's edges (deterministic u < v lexicographic order) for
   cluster-crossing ones — each adjacent cluster pair keeps the
   crossing edge minimizing d(a,x) + w + d(y,b) as its portal, ties to
   the first in scan order — then join each pair by one edge of that
   cost in the k-vertex center graph H and fill each row of [dmat] and
   [next_center] from one single-source search over it. Everything
   here is a pure function of (j, center_ix, dist_to_center); rows are
   slot-disjoint on the pool, so the tables are bit-identical for every
   pool size. *)
let center_tables j ~k ~center_ix ~dist_to_center =
  (* Keys are flattened center pairs ([a * k + b], [a < b]): int
     hashing and equality, no tuple allocated per crossing edge. *)
  let best = Hashtbl.create (4 * k) in
  Csr.iter_edges j (fun x y w ->
      let cx = center_ix.(x) and cy = center_ix.(y) in
      if cx >= 0 && cy >= 0 && cx <> cy then begin
        let key = if cx < cy then (cx * k) + cy else (cy * k) + cx in
        let lo, hi = if cx < cy then (x, y) else (y, x) in
        let cost = dist_to_center.(x) +. w +. dist_to_center.(y) in
        match Hashtbl.find_opt best key with
        | Some (c, _, _) when not (cost < c) -> ()
        | _ -> Hashtbl.replace best key (cost, lo, hi)
      end);
  let portal_key = Array.of_seq (Hashtbl.to_seq_keys best) in
  Array.sort Int.compare portal_key;
  let m = Array.length portal_key in
  let portal_lo = Array.make m 0 and portal_hi = Array.make m 0 in
  let h = Wgraph.create k in
  Array.iteri
    (fun i key ->
      let cost, lo, hi = Hashtbl.find best key in
      portal_lo.(i) <- lo;
      portal_hi.(i) <- hi;
      Wgraph.add_edge h (key / k) (key mod k) cost)
    portal_key;
  let h = Csr.of_wgraph h in
  (* A popped label is final whatever the tie order, so each row is
     bit for bit the center-graph distance. A parent settles before its
     child, so the first hop toward each center is read off its
     parent's, in settle order. *)
  let dmat = Array.make (k * k) infinity in
  let next_center = Array.make (k * k) (-1) in
  Pool.iter_chunks k (fun lo hi ->
      let ws = Dijkstra.domain_workspace () in
      let src = [| 0 |] in
      let out_v = Array.make k 0 and out_d = Array.make k 0.0 in
      let out_p = Array.make k 0 in
      for a = lo to hi - 1 do
        let row = a * k in
        src.(0) <- a;
        let cnt =
          Dijkstra.within_multi_csr_into ws h ~srcs:src ~bound:infinity ~out_v
            ~out_d ~out_p
        in
        for i = 0 to cnt - 1 do
          let b = out_v.(i) and p = out_p.(i) in
          dmat.(row + b) <- out_d.(i);
          if p >= 0 then
            next_center.(row + b) <- (if p = a then b else next_center.(row + p))
        done
      done);
  (portal_key, portal_lo, portal_hi, dmat, next_center)

(* At most this many landmarks: m = min 8 k. Each costs one full
   search per build and repair. On a 7000-vertex spanner a near search
   pops about 3200 vertices with none, 376 with 4, 202 with 8 and 141
   with 16. *)
let max_landmarks = 8

(* Farthest-point selection over the centers on [dmat], so no search is
   needed: the first landmark is the center farthest from center 0,
   each next one the center farthest from every landmark so far (ties
   to the lowest index). An unreachable center is infinitely far, so
   every component that can hold a landmark gets one before any
   component gets a second. A component with fewer than k/m centers
   gets none: its near searches run plainly. *)
let pick_landmarks ~k ~dmat =
  let eligible =
    Array.init k (fun a ->
        let size = ref 0 in
        for b = 0 to k - 1 do
          if dmat.((a * k) + b) < infinity then incr size
        done;
        !size * max_landmarks >= k)
  in
  let far = Array.init k (fun b -> dmat.(b)) in
  let picked = ref [] in
  for _ = 1 to max_landmarks do
    let best = ref (-1) in
    for b = 0 to k - 1 do
      if eligible.(b) && (!best < 0 || far.(b) > far.(!best)) then best := b
    done;
    let a = !best in
    if a >= 0 then begin
      picked := a :: !picked;
      eligible.(a) <- false;
      for b = 0 to k - 1 do
        far.(b) <- Float.min far.(b) dmat.((a * k) + b)
      done
    end
  done;
  Array.of_list (List.rev !picked)

(* One single-source search per landmark fills its column of the
   vertex-major table. Columns are slot-disjoint on the pool and each
   chunk reuses one pair of trace buffers, so the table is bit-identical
   for every pool size. *)
let landmark_table j ~landmarks : Dijkstra.landmarks =
  let n = Csr.n_vertices j and m = Array.length landmarks in
  let table = Array.make (n * m) infinity in
  Pool.iter_chunks m (fun lo hi ->
      let ws = Dijkstra.domain_workspace () in
      let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
      for i = lo to hi - 1 do
        let cnt =
          Dijkstra.within_csr_into ws j landmarks.(i) ~bound:infinity ~out_v
            ~out_d
        in
        for x = 0 to cnt - 1 do
          table.((out_v.(x) * m) + i) <- out_d.(x)
        done
      done);
  { table; m }

(* The tables both [build] and [repair] end with, from the centers and
   their forest. The near band [4 rho (1 + 1/eps)] is where a bounded
   search is cheap; correctness does not depend on it, since a pair
   beyond it is answered from the tables only when its landmark rows
   prove the envelope (see [classify]). *)
let assemble j ~t0 ~eps ~radius ~centers (center_ix, dist_to_center, up) =
  let k = Array.length centers in
  let near_bound =
    if k = 0 then 0.0 else 4.0 *. radius *. (1.0 +. (1.0 /. eps))
  in
  let portal_key, portal_lo, portal_hi, dmat, next_center =
    center_tables j ~k ~center_ix ~dist_to_center
  in
  let landmarks = Array.map (Array.get centers) (pick_landmarks ~k ~dmat) in
  {
    csr = j;
    eps;
    radius;
    near_bound;
    k;
    centers;
    center_ix;
    dist_to_center;
    up;
    dmat;
    next_center;
    portal_key;
    portal_lo;
    portal_hi;
    landmarks = landmark_table j ~landmarks;
    build_seconds = Unix.gettimeofday () -. t0;
  }

let build ?(eps = 0.5) j =
  if not (eps > 0.0) then invalid_arg "Oracle.build: eps must be > 0";
  let t0 = Unix.gettimeofday () in
  let centers, radius = find_cover j in
  let forest = grow_forest j ~centers ~radius in
  let t = assemble j ~t0 ~eps ~radius ~centers forest in
  Obs.Metrics.incr m_builds;
  t

let build ?eps j =
  if not (Obs.Control.enabled ()) then build ?eps j
  else begin
    let info = ref [] in
    Obs.Trace.span ~cat:"oracle" ~args:(fun () -> !info) "oracle.build"
      (fun () ->
        let t = build ?eps j in
        info :=
          [
            ("n", float_of_int (Csr.n_vertices j));
            ("clusters", float_of_int t.k);
            ("radius", t.radius);
            ("build_s", t.build_seconds);
          ];
        t)
  end

(* ------------------------------------------------------------------ *)
(* Incremental repair                                                  *)
(* ------------------------------------------------------------------ *)

type repair_result = {
  oracle : t;
  repaired : bool;
  fallback : string option;
  affected_clusters : int;
  repair_seconds : float;
}

(* Clusters, named by center vertex, that gained, lost or moved a
   member between [prev] and the new assignment. *)
let count_affected ~prev ~centers ~center_ix ~dist_to_center =
  let n = Array.length center_ix and n_prev = Array.length prev.center_ix in
  let changed = Array.make n false and count = ref 0 in
  let mark c =
    if c >= 0 && not changed.(c) then begin
      changed.(c) <- true;
      incr count
    end
  in
  for v = 0 to n - 1 do
    let ix = center_ix.(v) in
    let c = if ix < 0 then -1 else centers.(ix) in
    let ix0 = if v < n_prev then prev.center_ix.(v) else -1 in
    let c0 = if ix0 < 0 then -1 else prev.centers.(ix0) in
    if c <> c0 || (c >= 0 && dist_to_center.(v) <> prev.dist_to_center.(v))
    then begin
      mark c;
      mark c0
    end
  done;
  !count

(* Repair keeps [prev]'s cover (centers, radius, eps) and regrows the
   forest over the new snapshot, minting centers where a live vertex
   fell outside every kept ball. The forest is grown from scratch, so
   every table value is the length of a real walk in the new snapshot
   whatever [dirty] says; [dirty] only feeds the gate below. What
   repair saves over [build] is the cover's radius doubling. A kept
   cover that fits badly costs searches, never correctness, so the
   fallbacks to a scratch [build] guard speed and table size. On
   perfbench churn-burst (n = 800, a regional outage every tenth
   epoch) the dirty-fraction gate fires on the outage and heal epochs
   and the affected-fraction gate on a few more; without either, five
   runs read a higher [write_cpu_ms] in four, as the dropped gate's
   epochs pay the forest and minting and then fall back or keep a
   worn cover. *)
let repair_impl ~prev ~dirty j =
  let t0 = Unix.gettimeofday () in
  let n = Csr.n_vertices j in
  Array.iter
    (fun d ->
      if d < 0 || d >= n then invalid_arg "Oracle.repair: dirty out of range")
    dirty;
  let k = prev.k in
  let scratch reason =
    Obs.Metrics.incr m_repair_fallbacks;
    let oracle = build ~eps:prev.eps j in
    {
      oracle;
      repaired = false;
      fallback = Some reason;
      affected_clusters = k;
      repair_seconds = Unix.gettimeofday () -. t0;
    }
  in
  let repaired oracle affected_clusters =
    Obs.Metrics.incr m_repairs;
    {
      oracle;
      repaired = true;
      fallback = None;
      affected_clusters;
      repair_seconds = Unix.gettimeofday () -. t0;
    }
  in
  let m = Csr.n_edges j in
  let n_prev = Csr.n_vertices prev.csr in
  let mean_w = if m = 0 then 0.0 else Csr.total_weight j /. float_of_int m in
  if n_prev > n then scratch "capacity_changed"
  else if k = 0 || m = 0 then scratch "degenerate_cover"
  else if 4.0 *. mean_w > 2.0 *. prev.radius then
    (* The kept radius sets the near band and the cluster granularity,
       not correctness, so it only needs to track the weight scale
       loosely: one full doubling step of drift past the search's
       starting floor (4 x mean weight) is where we stop trusting it.
       It keeps the radius at least twice the mean weight, so the near
       band stays above 8 x mean weight x (1 + 1/eps): every answer
       below that is exact. Without the slack a build whose doubling
       search succeeded on its first attempt — radius exactly at the
       floor — would fall back on any epoch that nudges the mean
       weight up. *)
    scratch "radius_drift"
  else if 4 * Array.length dirty > n then scratch "dirty_fraction"
  else begin
    if dirty = [||] then begin
      (* Nothing changed; the previous oracle is valid as-is, but
         re-point it at the new snapshot so near queries search the
         graph being served. Slots born this epoch are isolated (a
         live one would be dirty) and stay unassigned. *)
      let grow ?(width = 1) src fill =
        if n_prev = n then src
        else Array.append src (Array.make ((n - n_prev) * width) fill)
      in
      repaired
        {
          prev with
          csr = j;
          center_ix = grow prev.center_ix (-1);
          dist_to_center = grow prev.dist_to_center infinity;
          up = grow prev.up (-1);
          landmarks =
            {
              prev.landmarks with
              table =
                grow ~width:prev.landmarks.m prev.landmarks.table infinity;
            };
        }
        0
    end
    else begin
      let radius = prev.radius in
      let kept =
        Array.of_seq
          (Seq.filter (fun c -> Csr.degree j c > 0) (Array.to_seq prev.centers))
      in
      let ((center_ix, _, _) as forest) = grow_forest j ~centers:kept ~radius in
      (* A live vertex the forest left unassigned is farther than the
         radius from every kept center: exactly where a scratch greedy
         would start a cluster. The cover's greedy mints centers there,
         so every live vertex ends within the radius of a kept or
         minted center. *)
      let minted =
        Option.get
          (Topo.Cluster_cover.compute_csr_limited j ~radius
             ~max_clusters:max_int
             ~covered:(Array.map (fun ix -> ix >= 0) center_ix))
      in
      let centers, forest =
        match minted with
        | [||] -> (kept, forest)
        | minted ->
            let centers = Array.append kept minted in
            (centers, grow_forest j ~centers ~radius)
      in
      let center_ix, dist_to_center, _ = forest in
      let affected =
        count_affected ~prev ~centers ~center_ix ~dist_to_center
      in
      if 4 * affected > k then scratch "affected_fraction"
      else if Array.length centers > max (cluster_cap n) k then
        scratch "cluster_overflow"
      else
        let t = assemble j ~t0 ~eps:prev.eps ~radius ~centers forest in
        repaired t affected
    end
  end

let repair ~prev ~dirty j =
  if not (Obs.Control.enabled ()) then repair_impl ~prev ~dirty j
  else begin
    let info = ref [] in
    Obs.Trace.span ~cat:"oracle" ~args:(fun () -> !info) "oracle.repair"
      (fun () ->
        let r = repair_impl ~prev ~dirty j in
        info :=
          [
            ("n", float_of_int (Csr.n_vertices j));
            ("dirty", float_of_int (Array.length dirty));
            ("affected", float_of_int r.affected_clusters);
            ("repaired", if r.repaired then 1.0 else 0.0);
            ("repair_s", r.repair_seconds);
          ];
        r)
  end

(* ------------------------------------------------------------------ *)
(* Query workspaces                                                    *)
(* ------------------------------------------------------------------ *)

type query_ws = {
  dws : Dijkstra.workspace;
  estimate : float array; (* [classify]'s L, in one unboxed slot *)
  mutable near : int; (* answers a search gave *)
  mutable far : int; (* answers read off the tables *)
  mutable route : int array; (* cached route, route.(0 .. route_len-1) *)
  mutable route_len : int;
  mutable route_pos : int; (* index of the current holder in route *)
  mutable route_dst : int; (* -1 = no cached route *)
  mutable stack : int array; (* descent-reversal scratch *)
}

let create_query_ws () =
  {
    dws = Dijkstra.create_workspace ();
    estimate = [| 0.0 |];
    near = 0;
    far = 0;
    route = [||];
    route_len = 0;
    route_pos = 0;
    route_dst = -1;
    stack = [||];
  }

let qws_key = Domain.DLS.new_key create_query_ws
let domain_query_ws () = Domain.DLS.get qws_key
let near_answers qws = qws.near
let far_answers qws = qws.far

(* ------------------------------------------------------------------ *)
(* The answer rule                                                     *)
(* ------------------------------------------------------------------ *)

type answer =
  | Apart (* an unassigned vertex, or different components *)
  | Search (* an exact search bounded by L *)
  | Table (* L itself, and the portal walk *)

(* The one rule every answer follows, for a pair [u <> v]; it stores
   the landmark walk length L in [qws.estimate.(0)]. A pair is answered
   from the tables only when L is above the near band and
   [L <= (1 + eps) LB], [LB] the largest
   [(1 - 2^-30) |D_i(u) - D_i(v)| - 2^-30 (D_i(u) + D_i(v))] (NaN terms
   ignored). A row entry's relative error is at most about [n 2^-53],
   so [|D_i(u) - D_i(v)|] exceeds d(u, v) by about
   [n 2^-53 (D_i(u) + D_i(v))] at most: for [n <= 2^22] the shift covers
   that and the scale the rest of the rounding, so LB stays below
   d(u, v). The sum, unlike the larger entry, needs no branch. Every
   other connected pair is searched. Inlined at each caller, so L and
   LB stay unboxed and a table answer allocates nothing. *)
let[@inline] classify t qws u v =
  let cu = t.center_ix.(u) and cv = t.center_ix.(v) in
  if cu < 0 || cv < 0 then Apart
  else begin
    let l =
      t.dist_to_center.(u) +. t.dmat.((cu * t.k) + cv) +. t.dist_to_center.(v)
    in
    qws.estimate.(0) <- l;
    if l = infinity then Apart
    else if l <= t.near_bound then Search
    else begin
      let table = t.landmarks.table and m = t.landmarks.m in
      let bu = u * m and bv = v * m in
      let lb = ref 0.0 in
      for i = 0 to m - 1 do
        let a = table.(bu + i) and b = table.(bv + i) in
        let x =
          ((1.0 -. 0x1p-30) *. Float.abs (a -. b)) -. (0x1p-30 *. (a +. b))
        in
        if x > !lb then lb := x
      done;
      if l <= (1.0 +. t.eps) *. !lb then Table else Search
    end
  end

(* A search's bound: L never underestimates (it is a walk length), so
   a search bounded by it always settles the target; the epsilon
   absorbs rounding in the three-term sum. *)
let search_bound qws = qws.estimate.(0) +. 1e-9

(* ------------------------------------------------------------------ *)
(* Distance queries                                                    *)
(* ------------------------------------------------------------------ *)

(* Inlined into both entries, so a table answer reaches a batch's float
   array unboxed. A searched pair runs an A* search toward [v]. *)
let[@inline] answer t qws u v =
  if u = v then 0.0
  else
    match classify t qws u v with
    | Table ->
        qws.far <- qws.far + 1;
        qws.estimate.(0)
    | Search ->
        qws.near <- qws.near + 1;
        Dijkstra.distance_upto_csr_ws qws.dws t.csr u v
          ~bound:(search_bound qws) ~landmarks:t.landmarks
    | Apart -> infinity

let distance_estimate t qws u v =
  Obs.Metrics.incr m_queries;
  answer t qws u v

let distance_batch_into ?domains (t : t) ~u ~v ~out =
  let n = Array.length u in
  if Array.length v <> n || Array.length out <> n then
    invalid_arg "Oracle.distance_batch_into: array lengths disagree";
  let t0 = Unix.gettimeofday () in
  Pool.iter_chunks ?domains n (fun lo hi ->
      let qws = domain_query_ws () in
      for i = lo to hi - 1 do
        out.(i) <- answer t qws u.(i) v.(i)
      done);
  let dt = Unix.gettimeofday () -. t0 in
  Obs.Metrics.incr m_batches;
  Obs.Metrics.add m_queries n;
  if n > 0 then begin
    Obs.Metrics.observe m_query_latency (dt /. float_of_int n);
    if dt > 0.0 then Obs.Metrics.set_gauge g_batch_qps (float_of_int n /. dt)
  end

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)
(* ------------------------------------------------------------------ *)

let push qws x =
  (* Squash consecutive duplicates (portal = center, zero-length
     ascents) so the route is a clean vertex walk. *)
  if qws.route_len > 0 && qws.route.(qws.route_len - 1) = x then ()
  else begin
    if qws.route_len = Array.length qws.route then begin
      let cap = max 16 (2 * qws.route_len) in
      let r = Array.make cap 0 in
      Array.blit qws.route 0 r 0 qws.route_len;
      qws.route <- r
    end;
    qws.route.(qws.route_len) <- x;
    qws.route_len <- qws.route_len + 1
  end

let spush qws x n =
  if n = Array.length qws.stack then begin
    let cap = max 16 (2 * n) in
    let s = Array.make cap 0 in
    Array.blit qws.stack 0 s 0 n;
    qws.stack <- s
  end;
  qws.stack.(n) <- x;
  n + 1

(* Emit the path center-of-cluster -> x (the reverse of x's up-chain);
   the center itself must already be on the route. *)
let emit_descent t qws x =
  let sl = ref 0 in
  let v = ref x in
  while t.up.(!v) >= 0 do
    sl := spush qws !v !sl;
    v := t.up.(!v)
  done;
  for i = !sl - 1 downto 0 do
    push qws qws.stack.(i)
  done

(* Slot of the adjacent center pair {a, b} in the portal table. The
   pair is always present: the center chain only follows H edges. *)
let portal_index t a b =
  let key = if a < b then (a * t.k) + b else (b * t.k) + a in
  let lo = ref 0 and hi = ref (Array.length t.portal_key) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.portal_key.(mid) <= key then lo := mid else hi := mid
  done;
  !lo

(* Rebuild the cached route from [src <> dst]. A searched pair routes
   on the exact shortest path (an A* parents search from [dst] toward
   [src], so each vertex's parent IS its next hop toward [dst]); a
   table pair ascends to the source's center, threads the center chain
   through the portals, and descends. Returns false when
   unreachable. *)
let compute_route t qws src dst =
  qws.route_len <- 0;
  qws.route_pos <- 0;
  qws.route_dst <- -1;
  match classify t qws src dst with
  | Apart -> false
  | Search ->
      qws.near <- qws.near + 1;
      Dijkstra.settle_parents_csr_ws qws.dws t.csr dst ~target:src
        ~bound:(search_bound qws) ~landmarks:t.landmarks;
      (* The true distance is at most L, so [src] popped within the
         bound and every vertex on its shortest path to [dst] settled
         before it; the parent chain cannot dead-end. *)
      let v = ref src in
      push qws src;
      while !v <> dst do
        let p = Dijkstra.ws_parent qws.dws !v in
        assert (p >= 0);
        v := p;
        push qws !v
      done;
      qws.route_dst <- dst;
      true
  | Table ->
      qws.far <- qws.far + 1;
      let cu = t.center_ix.(src) and cv = t.center_ix.(dst) in
      (* Ascend src -> its center. *)
      push qws src;
      let v = ref src in
      while t.up.(!v) >= 0 do
        v := t.up.(!v);
        push qws !v
      done;
      (* Center chain, expanding each H edge through its portal: [x] in
         the current cluster, [y] in the next one. *)
      let a = ref cu in
      while !a <> cv do
        let b = t.next_center.((!a * t.k) + cv) in
        let i = portal_index t !a b in
        let x = if !a < b then t.portal_lo.(i) else t.portal_hi.(i) in
        let y = if !a < b then t.portal_hi.(i) else t.portal_lo.(i) in
        emit_descent t qws x;
        push qws y;
        let w = ref y in
        while t.up.(!w) >= 0 do
          w := t.up.(!w);
          push qws !w
        done;
        a := b
      done;
      emit_descent t qws dst;
      qws.route_dst <- dst;
      true

let spanner_path t qws ~src ~dst =
  if src = dst then Some [| src |]
  else if compute_route t qws src dst then
    Some (Array.sub qws.route 0 qws.route_len)
  else None

let next_hop t qws u ~dst =
  if u = dst then -1
  else if
    qws.route_dst = dst
    && qws.route_pos + 1 < qws.route_len
    && qws.route.(qws.route_pos) = u
  then begin
    (* Forwarding along the cached route: one array read per hop. *)
    qws.route_pos <- qws.route_pos + 1;
    qws.route.(qws.route_pos)
  end
  else if compute_route t qws u dst then begin
    qws.route_pos <- 1;
    qws.route.(1)
  end
  else -2
