module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra
module Pool = Parallel.Pool

(* Flat-array oracle over one frozen snapshot. Center indices (not
   vertex ids) index every k-sized table; [dmat] / [next_center] are
   k x k row-major. The clusters are the trees of one shortest-path
   forest grown from every center at once, so [up] chains stay inside
   their cluster. The center graph H keeps its own CSR-style arrays
   so each H edge can carry its portal (the crossing spanner edge the
   route expansion threads through) — [Graph.Csr] has no edge
   payloads. *)
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
  h_off : int array; (* k+1: center graph adjacency offsets *)
  h_dst : int array;
  h_px : int array; (* portal endpoint inside the source cluster *)
  h_py : int array; (* portal endpoint inside the destination cluster *)
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
      + Array.length t.h_off + Array.length t.h_dst + Array.length t.h_px
      + Array.length t.h_py;
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

let cluster_cap ?max_clusters n =
  match max_clusters with
  | Some k when k >= 1 -> k
  | Some _ -> invalid_arg "Oracle.build: max_clusters must be >= 1"
  | None -> max 16 (int_of_float (4.0 *. sqrt (float_of_int n)))

(* Pick the centers by radius doubling: start at four mean edge weights
   and double until the greedy cover fits under the cluster cap, so k
   stays O(max_clusters) whatever the weight scale. Everything is a
   pure function of the snapshot — no randomness, no schedule
   dependence. *)
let find_cover j ~max_clusters =
  let m = Csr.n_edges j in
  let mean_w = if m = 0 then 0.0 else Csr.total_weight j /. float_of_int m in
  let rec attempt rho attempts =
    if attempts = 60 then
      (* Radius exceeds the total edge weight: clusters are whole
         components and the count cannot shrink further — accept. *)
      ( Option.get
          (Topo.Cluster_cover.compute_csr_limited j ~radius:rho
             ~max_clusters:max_int),
        rho )
    else
      match
        Topo.Cluster_cover.compute_csr_limited j ~radius:rho ~max_clusters
      with
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
   the first in scan order — then counting-sort both directions into
   CSR form and run the k single-source searches that fill [dmat] and
   [next_center]. Everything here is a pure function of
   (j, center_ix, dist_to_center); rows are slot-disjoint on the pool,
   so the tables are bit-identical for every pool size. *)
let center_tables j ~k ~center_ix ~dist_to_center =
  (* Keys are flattened center pairs ([a * k + b], [a < b]): int
     hashing and equality, no tuple allocated per crossing edge. *)
  let h_edges = Hashtbl.create (4 * k) in
  let h_order = ref [] in
  Csr.iter_edges j (fun x y w ->
      let cx = center_ix.(x) and cy = center_ix.(y) in
      if cx >= 0 && cy >= 0 && cx <> cy then begin
        let key = if cx < cy then (cx * k) + cy else (cy * k) + cx in
        let px, py = if cx < cy then (x, y) else (y, x) in
        let cost = dist_to_center.(x) +. w +. dist_to_center.(y) in
        match Hashtbl.find_opt h_edges key with
        | None ->
            Hashtbl.add h_edges key (cost, px, py);
            h_order := key :: !h_order
        | Some (best, _, _) ->
            if cost < best then Hashtbl.replace h_edges key (cost, px, py)
      end);
  let h_list = Array.of_list (List.rev !h_order) in
  let deg = Array.make (k + 1) 0 in
  Array.iter
    (fun key ->
      deg.(key / k) <- deg.(key / k) + 1;
      deg.(key mod k) <- deg.(key mod k) + 1)
    h_list;
  let h_off = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    h_off.(i + 1) <- h_off.(i) + deg.(i)
  done;
  let total = h_off.(k) in
  let h_dst = Array.make total 0 in
  let h_wgt = Array.make total 0.0 in
  let h_px = Array.make total 0 in
  let h_py = Array.make total 0 in
  let cursor = Array.copy h_off in
  Array.iter
    (fun key ->
      let a = key / k and b = key mod k in
      let cost, px, py = Hashtbl.find h_edges key in
      let ia = cursor.(a) in
      cursor.(a) <- ia + 1;
      h_dst.(ia) <- b;
      h_wgt.(ia) <- cost;
      h_px.(ia) <- px;
      h_py.(ia) <- py;
      let ib = cursor.(b) in
      cursor.(b) <- ib + 1;
      h_dst.(ib) <- a;
      h_wgt.(ib) <- cost;
      h_px.(ib) <- py;
      h_py.(ib) <- px)
    h_list;
  (* APSP over H fills the distance matrix and the first-hop table.
     H is tiny (k a few hundred, a handful of edges per center), so
     the generic workspace Dijkstra's per-source constant — closure
     per edge, stamped reads, checked heap ops — dominates the k
     searches; a specialized loop over the flat H arrays with an
     inline lazy-deletion binary heap is ~5x cheaper and this stage
     is the bulk of every repair. Each row doubles as its own dist
     array. Distances are unique shortest-path sums, so [dmat] is
     bit-identical to the generic version's; pops come off the heap
     in nondecreasing key order and H costs are strictly positive, so
     a parent always settles strictly before its children and the
     first hop can be read off the parent chain at settle time. *)
  let dmat = Array.make (k * k) infinity in
  let next_center = Array.make (k * k) (-1) in
  Pool.iter_chunks k (fun lo hi ->
      (* One push per improvement and each directed edge improves its
         head at most once, so [total + 1] slots bound the heap. *)
      let cap = total + 1 in
      let hp_v = Array.make cap 0 in
      let hp_d = Array.make cap 0.0 in
      let par = Array.make k (-1) in
      let settled = Array.make k false in
      (* Loop cursors hoisted out of the hot loops: a ref allocated
         per pop/push is minor-GC churn the APSP can feel. *)
      let hn = ref 0 and i = ref 0 and s = ref 0 and sifting = ref false in
      for a = lo to hi - 1 do
        let row = a * k in
        Array.fill settled 0 k false;
        dmat.(row + a) <- 0.0;
        hp_v.(0) <- a;
        hp_d.(0) <- 0.0;
        hn := 1;
        while !hn > 0 do
          let u = hp_v.(0) and du = hp_d.(0) in
          let last = !hn - 1 in
          hp_v.(0) <- hp_v.(last);
          hp_d.(0) <- hp_d.(last);
          hn := last;
          i := 0;
          sifting := last > 1;
          while !sifting do
            let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
            s := !i;
            if l < last && hp_d.(l) < hp_d.(!s) then s := l;
            if r < last && hp_d.(r) < hp_d.(!s) then s := r;
            if !s = !i then sifting := false
            else begin
              let tv = hp_v.(!i) and td = hp_d.(!i) in
              hp_v.(!i) <- hp_v.(!s);
              hp_d.(!i) <- hp_d.(!s);
              hp_v.(!s) <- tv;
              hp_d.(!s) <- td;
              i := !s
            end
          done;
          (* Stale entries (improved after push) pop after the fresh
             one that superseded them; the settled flag skips them. *)
          if not settled.(u) then begin
            settled.(u) <- true;
            (if u <> a then
               let p = par.(u) in
               next_center.(row + u) <-
                 (if p = a then u else next_center.(row + p)));
            for e = h_off.(u) to h_off.(u + 1) - 1 do
              let v = h_dst.(e) in
              let dv = du +. h_wgt.(e) in
              if dv < dmat.(row + v) then begin
                dmat.(row + v) <- dv;
                par.(v) <- u;
                i := !hn;
                hn := !hn + 1;
                while
                  !i > 0
                  &&
                  let up = (!i - 1) / 2 in
                  dv < hp_d.(up)
                do
                  let up = (!i - 1) / 2 in
                  hp_v.(!i) <- hp_v.(up);
                  hp_d.(!i) <- hp_d.(up);
                  i := up
                done;
                hp_v.(!i) <- v;
                hp_d.(!i) <- dv
              end
            done
          end
        done
      done);
  (h_off, h_dst, h_px, h_py, dmat, next_center)

(* The tables both [build] and [repair] end with, from the centers and
   their forest. *)
let assemble j ~t0 ~eps ~radius ~near_bound ~centers
    (center_ix, dist_to_center, up) =
  let k = Array.length centers in
  let h_off, h_dst, h_px, h_py, dmat, next_center =
    center_tables j ~k ~center_ix ~dist_to_center
  in
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
    h_off;
    h_dst;
    h_px;
    h_py;
    build_seconds = Unix.gettimeofday () -. t0;
  }

let build ?(eps = 0.5) ?max_clusters j =
  if not (eps > 0.0) then invalid_arg "Oracle.build: eps must be > 0";
  let t0 = Unix.gettimeofday () in
  let max_clusters = cluster_cap ?max_clusters (Csr.n_vertices j) in
  let centers, radius = find_cover j ~max_clusters in
  let near_bound =
    if centers = [||] then 0.0 else 4.0 *. radius *. (1.0 +. (1.0 /. eps))
  in
  let t =
    assemble j ~t0 ~eps ~radius ~near_bound ~centers
      (grow_forest j ~centers ~radius)
  in
  Obs.Metrics.incr m_builds;
  t

let build ?eps ?max_clusters j =
  if not (Obs.Control.enabled ()) then build ?eps ?max_clusters j
  else begin
    let info = ref [] in
    Obs.Trace.span ~cat:"oracle" ~args:(fun () -> !info) "oracle.build"
      (fun () ->
        let t = build ?eps ?max_clusters j in
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

(* A live vertex the forest left unassigned is farther than the radius
   from every center: exactly where a scratch greedy would start a
   cluster. Mint centers there in id order, each claiming its radius
   ball as the greedy would, so every live vertex ends within the
   radius of a kept or minted center. *)
let mint j ~radius ~center_ix =
  let n = Csr.n_vertices j in
  let claimed = Array.map (fun ix -> ix >= 0) center_ix in
  let out_v = Array.make n 0 and out_d = Array.make n 0.0 in
  let ws = Dijkstra.domain_workspace () in
  let minted = ref [] in
  for v = 0 to n - 1 do
    if (not claimed.(v)) && Csr.degree j v > 0 then begin
      minted := v :: !minted;
      let cnt = Dijkstra.within_csr_into ws j v ~bound:radius ~out_v ~out_d in
      for i = 0 to cnt - 1 do
        claimed.(out_v.(i)) <- true
      done
    end
  done;
  Array.of_list (List.rev !minted)

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
   repair saves over [build] is the cover's radius doubling. Where the
   kept cover stops fitting — the weight scale drifting away from the
   doubling floor the radius was chosen at, churn concentrated in the
   cover, or minting overflowing the cluster cap — repair falls back
   to a scratch [build] (mirroring the engine's own rebuild fallback)
   and says why in [fallback]. *)
let repair_impl ?max_clusters ~prev ~dirty j =
  let t0 = Unix.gettimeofday () in
  let n = Csr.n_vertices j in
  let k = prev.k in
  let scratch reason =
    Obs.Metrics.incr m_repair_fallbacks;
    let oracle = build ~eps:prev.eps ?max_clusters j in
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
    (* The envelope is scale-free in the cover radius, so the kept
       radius only needs to track the weight scale loosely; one full
       doubling step of drift past the search's starting floor
       (4 x mean weight) is where we stop trusting the cover's
       granularity. Without the slack a build whose doubling search
       succeeded on its first attempt — radius exactly at the floor —
       would fall back on any epoch that nudges the mean weight up. *)
    scratch "radius_drift"
  else if 4 * Array.length dirty > n then scratch "dirty_fraction"
  else begin
    Array.iter
      (fun d ->
        if d < 0 || d >= n then invalid_arg "Oracle.repair: dirty out of range")
      dirty;
    if dirty = [||] then begin
      (* Nothing changed; the previous oracle is valid as-is, but
         re-point it at the new snapshot so near queries search the
         graph being served. Slots born this epoch are isolated (a
         live one would be dirty) and stay unassigned. *)
      let grow src fill =
        if n_prev = n then src
        else Array.append src (Array.make (n - n_prev) fill)
      in
      repaired
        {
          prev with
          csr = j;
          center_ix = grow prev.center_ix (-1);
          dist_to_center = grow prev.dist_to_center infinity;
          up = grow prev.up (-1);
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
      let centers, forest =
        match mint j ~radius ~center_ix with
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
      else if Array.length centers > max (cluster_cap ?max_clusters n) k then
        scratch "cluster_overflow"
      else begin
        (* A build's near bound [4r(1 + 1/eps)] is exactly tight: far
           correctness needs the center detour <= 4r, and greedy covers
           sit within a hair of that line. A repaired cover's detour
           can drift a few percent past it (frozen centers, kept
           radius), so widen the near band by one detour allowance —
           boundary pairs are answered exactly by the near search and
           far pairs keep a 4r/3 detour margin. The formula is a
           function of (radius, eps) only, so chained repairs do not
           inflate it further. *)
        let near_bound =
          (4.0 *. radius *. (1.0 +. (1.0 /. prev.eps))) +. (4.0 *. radius)
        in
        repaired
          (assemble j ~t0 ~eps:prev.eps ~radius ~near_bound ~centers forest)
          affected
      end
    end
  end

let repair ?max_clusters ~prev ~dirty j =
  if not (Obs.Control.enabled ()) then repair_impl ?max_clusters ~prev ~dirty j
  else begin
    let info = ref [] in
    Obs.Trace.span ~cat:"oracle" ~args:(fun () -> !info) "oracle.repair"
      (fun () ->
        let r = repair_impl ?max_clusters ~prev ~dirty j in
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
  mutable route : int array; (* cached route, route.(0 .. route_len-1) *)
  mutable route_len : int;
  mutable route_pos : int; (* index of the current holder in route *)
  mutable route_dst : int; (* -1 = no cached route *)
  mutable stack : int array; (* descent-reversal scratch *)
}

let create_query_ws () =
  {
    dws = Dijkstra.create_workspace ();
    route = [||];
    route_len = 0;
    route_pos = 0;
    route_dst = -1;
    stack = [||];
  }

let qws_key = Domain.DLS.new_key create_query_ws
let domain_query_ws () = Domain.DLS.get qws_key

(* ------------------------------------------------------------------ *)
(* Distance queries                                                    *)
(* ------------------------------------------------------------------ *)

(* Far estimates never underestimate (they are genuine walk lengths),
   so a bounded exact search with the estimate as bound always settles
   the target on the near path; the epsilon absorbs rounding in the
   three-term sum. *)
let bound_slack = 1e-9

let distance_estimate t qws u v =
  Obs.Metrics.incr m_queries;
  if u = v then 0.0
  else begin
    let cu = t.center_ix.(u) and cv = t.center_ix.(v) in
    if cu < 0 || cv < 0 then infinity
    else begin
      let l =
        t.dist_to_center.(u) +. t.dmat.((cu * t.k) + cv)
        +. t.dist_to_center.(v)
      in
      if l <= t.near_bound then
        Dijkstra.distance_upto_csr_ws qws.dws t.csr u v ~bound:(l +. bound_slack)
      else l
    end
  end

let distance_batch_into ?domains (t : t) ~u ~v ~out =
  let n = Array.length u in
  if Array.length v <> n || Array.length out <> n then
    invalid_arg "Oracle.distance_batch_into: array lengths disagree";
  let t0 = Unix.gettimeofday () in
  Pool.iter_chunks ?domains n (fun lo hi ->
      let dws = (domain_query_ws ()).dws in
      let near_bound = t.near_bound in
      let k = t.k in
      for i = lo to hi - 1 do
        let uu = u.(i) and vv = v.(i) in
        if uu = vv then out.(i) <- 0.0
        else begin
          let cu = t.center_ix.(uu) and cv = t.center_ix.(vv) in
          if cu < 0 || cv < 0 then out.(i) <- infinity
          else begin
            (* The far path is pure float arithmetic into a float
               array slot: no boxing, no allocation, no search. *)
            let l =
              t.dist_to_center.(uu) +. t.dmat.((cu * k) + cv)
              +. t.dist_to_center.(vv)
            in
            if l <= near_bound then
              out.(i) <-
                Dijkstra.distance_upto_csr_ws dws t.csr uu vv
                  ~bound:(l +. bound_slack)
            else out.(i) <- l
          end
        end
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

(* Rebuild the cached route from [src]. Near pairs route on the exact
   shortest path (parents search from [dst], so each vertex's parent
   IS its next hop toward [dst]); far pairs ascend to the source's
   center, thread the center chain through the portals, and descend.
   Returns false when unreachable. *)
let compute_route t qws src dst =
  qws.route_len <- 0;
  qws.route_pos <- 0;
  qws.route_dst <- -1;
  let cu = t.center_ix.(src) and cv = t.center_ix.(dst) in
  if cu < 0 || cv < 0 then false
  else begin
    let l =
      t.dist_to_center.(src) +. t.dmat.((cu * t.k) + cv)
      +. t.dist_to_center.(dst)
    in
    if l = infinity then false
    else begin
      if l <= t.near_bound then begin
        Dijkstra.settle_parents_csr_ws qws.dws t.csr dst
          ~bound:(l +. bound_slack);
        (* The true distance is at most [l], so [src] and every vertex
           on its shortest path to [dst] settled within the bound; the
           parent chain cannot dead-end. *)
        let v = ref src in
        push qws src;
        while !v <> dst do
          let p = Dijkstra.ws_parent qws.dws !v in
          assert (p >= 0);
          v := p;
          push qws !v
        done
      end
      else begin
        (* Ascend src -> its center. *)
        push qws src;
        let v = ref src in
        while t.up.(!v) >= 0 do
          v := t.up.(!v);
          push qws !v
        done;
        (* Center chain, expanding each H edge through its portal. *)
        let a = ref cu in
        while !a <> cv do
          let b = t.next_center.((!a * t.k) + cv) in
          let e = ref t.h_off.(!a) in
          while t.h_dst.(!e) <> b do
            incr e
          done;
          emit_descent t qws t.h_px.(!e);
          push qws t.h_py.(!e);
          let w = ref t.h_py.(!e) in
          while t.up.(!w) >= 0 do
            w := t.up.(!w);
            push qws !w
          done;
          a := b
        done;
        emit_descent t qws dst
      end;
      qws.route_dst <- dst;
      true
    end
  end

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
