module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra

type t = {
  hcsr : Csr.t;
  w_prev : float;
  cover : Cluster_cover.t;
  inter_degree : int array;
}

(* Per-domain scratch for [Dijkstra.within_csr_into]: each pool worker
   reuses one pair of ball buffers, so a per-center search allocates
   nothing proportional to the graph — no assoc list, and therefore no
   minor-GC pressure shared across domains. *)
let ball_scratch : (int array ref * float array ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref [||], ref [||]))

let ball_buffers n =
  let vbuf, dbuf = Domain.DLS.get ball_scratch in
  if Array.length !vbuf < n then begin
    vbuf := Array.make n 0;
    dbuf := Array.make n 0.0
  end;
  (!vbuf, !dbuf)

let check_radius ~cover ~w_prev =
  if cover.Cluster_cover.radius > w_prev +. 1e-12 then
    invalid_arg "Cluster_graph.build: cover radius exceeds W_{i-1}"

(* Condition (i) needs sp <= W, condition (ii) is bounded by
   (2 delta + 1) W = W + 2 * radius (Lemma 5): one bounded Dijkstra per
   center reaches every qualifying partner. *)
let reach_of ~cover ~w_prev =
  w_prev +. (2.0 *. cover.Cluster_cover.radius) +. 1e-12

(* Per-domain crossing stamps for condition (ii): while center [a] is
   scanned, [stamps.(b) = epoch] marks every center [b] that a spanner
   arc out of one of [a]'s members reaches. Each center takes a fresh
   epoch, so a round costs its members' arcs and allocates nothing. *)
let stamp_scratch : (int array ref * int ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref [||], ref 0))

let stamp_buffer n =
  let stamps, epoch = Domain.DLS.get stamp_scratch in
  if Array.length !stamps < n then stamps := Array.make n 0;
  (!stamps, epoch)

(* Members of each center as one slice: a counting sort on [center_of],
   so [mem.(mem_off.(a)) .. mem.(mem_off.(a + 1) - 1)] are the members
   of [C_a], ascending. A vertex without a center is in no slice. *)
let member_index ~center_of ~n =
  let mem_off = Array.make (n + 1) 0 in
  Array.iter
    (fun a -> if a >= 0 then mem_off.(a + 1) <- mem_off.(a + 1) + 1)
    center_of;
  for a = 0 to n - 1 do
    mem_off.(a + 1) <- mem_off.(a + 1) + mem_off.(a)
  done;
  let mem = Array.make mem_off.(n) 0 and cursor = Array.sub mem_off 0 n in
  Array.iteri
    (fun x a ->
      if a >= 0 then begin
        mem.(cursor.(a)) <- x;
        cursor.(a) <- cursor.(a) + 1
      end)
    center_of;
  (mem_off, mem)

(* ------------------------------------------------------------------ *)
(* Build: arenas + direct CSR emit                                      *)
(* ------------------------------------------------------------------ *)

(* Per-chunk arena for qualifying inter-cluster partners. A chunk of
   centers appends (partner, weight) pairs to one growable pair of flat
   arrays; [cnt] records how many belong to each center of the chunk,
   so the sequential merge can read each center's run back without
   per-center allocations. *)
type arena = {
  base : int; (* first center index of the chunk *)
  cnt : int array; (* per center of the chunk: #partners recorded *)
  mutable pv : int array;
  mutable pw : float array;
  mutable len : int;
}

let arena_push ar b d =
  if ar.len = Array.length ar.pv then begin
    let cap = max 64 (2 * ar.len) in
    let pv = Array.make cap 0 and pw = Array.make cap 0.0 in
    Array.blit ar.pv 0 pv 0 ar.len;
    Array.blit ar.pw 0 pw 0 ar.len;
    ar.pv <- pv;
    ar.pw <- pw
  end;
  ar.pv.(ar.len) <- b;
  ar.pw.(ar.len) <- d;
  ar.len <- ar.len + 1

(* H is built flat, without ever materializing a mutable graph or a
   hashtable:

     1. a member index: one counting sort on [center_of];
     2. per-center balls + qualification fan out over the pool in
        contiguous chunks, each appending to a private arena; a
        partner farther than [W_{i-1}] qualifies when the center's
        crossing stamps (its members' spanner arcs) reach it. The
        qualifying set is a pure function of the frozen inputs, so
        chunking does not change it;
     3. a sequential merge in center order drains the arenas;
     4. degrees -> prefix sum -> direct arc fill into plain CSR arrays,
        adopted by [Csr.of_arrays] (which sorts the few center slices
        whose inter arcs arrived out of id order).

   The result is a function of the edge set alone (CSR slices are
   sorted by unique neighbor id): the intra weights are read from the
   cover, and each inter weight comes from the bounded search run from
   the pair's earlier-merged endpoint. *)
let build_csr ~spanner ~cover ~w_prev =
  check_radius ~cover ~w_prev;
  let n = Csr.n_vertices spanner in
  let centers = cover.Cluster_cover.centers in
  let center_of = cover.Cluster_cover.center_of in
  let dist_to_center = cover.Cluster_cover.dist_to_center in
  let k_centers = Array.length centers in
  let inter_degree = Array.make n 0 in
  let mem_off, mem = member_index ~center_of ~n in
  let sp_off = spanner.Csr.off and sp_dst = spanner.Csr.dst in
  (* Merge order of each center doubles as its pair stamp (non-centers
     keep [max_int]). Balls are symmetric (sp and the qualifying
     conditions are), so the pair {a, b} is found from both endpoints;
     [merge_order.(b) > i] keeps it only at the earlier one. *)
  let merge_order = Array.make n max_int in
  Array.iteri (fun i a -> merge_order.(a) <- i) centers;
  let reach = reach_of ~cover ~w_prev in
  (* Chunked fan-out: each chunk fetches its domain's workspace and
     ball buffers once, then scans its centers, recording qualifying
     partners in its own arena. Chunk-start indices are unique, so
     [slots.(lo)] is a race-free home for the chunk's arena. *)
  let slots : arena option array = Array.make (max 1 k_centers) None in
  Parallel.Pool.iter_chunks k_centers (fun lo hi ->
      let ar =
        {
          base = lo;
          cnt = Array.make (hi - lo) 0;
          pv = [||];
          pw = [||];
          len = 0;
        }
      in
      slots.(lo) <- Some ar;
      let ws = Dijkstra.domain_workspace () in
      let vbuf, dbuf = ball_buffers n in
      let stamps, epoch = stamp_buffer n in
      for i = lo to hi - 1 do
        let a = centers.(i) in
        incr epoch;
        let ep = !epoch in
        for p = mem_off.(a) to mem_off.(a + 1) - 1 do
          let x = mem.(p) in
          for q = sp_off.(x) to sp_off.(x + 1) - 1 do
            let b = center_of.(sp_dst.(q)) in
            if b >= 0 then stamps.(b) <- ep
          done
        done;
        let nk =
          Dijkstra.within_csr_into ws spanner a ~bound:reach ~out_v:vbuf
            ~out_d:dbuf
        in
        for j = 0 to nk - 1 do
          let b = vbuf.(j) and d = dbuf.(j) in
          if merge_order.(b) > i && merge_order.(b) < max_int && d > 0.0
          then
            if d <= w_prev +. 1e-12 || stamps.(b) = ep then begin
              arena_push ar b d;
              ar.cnt.(i - lo) <- ar.cnt.(i - lo) + 1
            end
        done
      done);
  (* Degrees: one arc per (center, member) end plus one per recorded
     inter pair end. *)
  let deg = Array.make n 0 in
  for x = 0 to n - 1 do
    let a = center_of.(x) in
    if a >= 0 && a <> x then begin
      deg.(x) <- deg.(x) + 1;
      deg.(a) <- deg.(a) + 1
    end
  done;
  for lo = 0 to k_centers - 1 do
    match slots.(lo) with
    | None -> ()
    | Some ar ->
        for j = 0 to ar.len - 1 do
          deg.(ar.pv.(j)) <- deg.(ar.pv.(j)) + 1
        done;
        Array.iteri
          (fun ci c ->
            deg.(centers.(ar.base + ci)) <- deg.(centers.(ar.base + ci)) + c)
          ar.cnt
  done;
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + deg.(u)
  done;
  let m2 = off.(n) in
  let dst = Array.make m2 0 and wgt = Array.make m2 0.0 in
  let cursor = Array.sub off 0 n in
  let emit u v w =
    let c = cursor.(u) in
    dst.(c) <- v;
    wgt.(c) <- w;
    cursor.(u) <- c + 1
  in
  (* Intra arcs in ascending member order: member slices (degree 1 for
     a plain member) and the intra prefix of center slices come out
     already sorted. *)
  for x = 0 to n - 1 do
    let a = center_of.(x) in
    if a >= 0 && a <> x then begin
      let w = dist_to_center.(x) in
      emit a x w;
      emit x a w
    end
  done;
  (* Sequential merge in center order: drain each chunk's arena,
     reading center i's partner run. Deterministic — arena contents
     are chunk-independent and the walk order is fixed. *)
  let cur = ref None in
  let cur_off = ref 0 in
  for i = 0 to k_centers - 1 do
    (match slots.(i) with
    | Some ar ->
        cur := Some ar;
        cur_off := 0
    | None -> ());
    match !cur with
    | None -> ()
    | Some ar ->
        let a = centers.(i) in
        let run = ar.cnt.(i - ar.base) in
        for j = !cur_off to !cur_off + run - 1 do
          let b = ar.pv.(j) and d = ar.pw.(j) in
          emit a b d;
          emit b a d;
          inter_degree.(a) <- inter_degree.(a) + 1;
          inter_degree.(b) <- inter_degree.(b) + 1
        done;
        cur_off := !cur_off + run
  done;
  let hcsr = Csr.of_arrays ~off ~dst ~wgt in
  { hcsr; w_prev; cover; inter_degree }

let build ~spanner ~cover ~w_prev =
  build_csr ~spanner:(Csr.of_wgraph spanner) ~cover ~w_prev

let to_wgraph t = Csr.to_wgraph t.hcsr

(* Queries fan out over the pool in step (iv); the calling domain's own
   workspace keeps each search allocation-free, and results are
   bit-identical to the plain hop-bounded search. *)
let sp_upto t ~max_hops x y ~bound =
  Dijkstra.hop_bounded_distance_csr_ws
    (Dijkstra.domain_workspace ())
    t.hcsr x y ~max_hops ~bound

let query t ~params ~x ~y ~len =
  let budget = params.Params.t *. len in
  let max_hops = Params.query_hop_limit params in
  let d = sp_upto t ~max_hops x y ~bound:budget in
  if d <= budget then `Short_path d else `No_path

let max_inter_degree t = Array.fold_left max 0 t.inter_degree
