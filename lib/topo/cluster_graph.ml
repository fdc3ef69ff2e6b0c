module Csr = Graph.Csr
module Dijkstra = Graph.Dijkstra

type t = {
  hcsr : Csr.t;
  w_prev : float;
  cover : Cluster_cover.t;
  inter_degree : int array;
}

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
   of [C_a], ascending. A vertex without a center is in no slice. The
   arrays are the calling domain's, reused by every call (a phase per
   bin would otherwise allocate three graph-sized arrays for them);
   [cursor] is left to the caller as scratch. *)
type index = {
  mutable mem_off : int array;
  mutable mem : int array;
  mutable cursor : int array;
}

let index_scratch : index Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { mem_off = [||]; mem = [||]; cursor = [||] })

let member_index ~center_of ~n =
  let ix = Domain.DLS.get index_scratch in
  if Array.length ix.cursor < n then begin
    ix.mem_off <- Array.make (n + 1) 0;
    ix.mem <- Array.make n 0;
    ix.cursor <- Array.make n 0
  end
  else Array.fill ix.mem_off 0 (n + 1) 0;
  let mem_off = ix.mem_off and mem = ix.mem and cursor = ix.cursor in
  Array.iter
    (fun a -> if a >= 0 then mem_off.(a + 1) <- mem_off.(a + 1) + 1)
    center_of;
  for a = 0 to n - 1 do
    mem_off.(a + 1) <- mem_off.(a + 1) + mem_off.(a)
  done;
  Array.blit mem_off 0 cursor 0 n;
  Array.iteri
    (fun x a ->
      if a >= 0 then begin
        mem.(cursor.(a)) <- x;
        cursor.(a) <- cursor.(a) + 1
      end)
    center_of;
  ix

(* ------------------------------------------------------------------ *)
(* Build: arenas + direct CSR emit                                      *)
(* ------------------------------------------------------------------ *)

(* Per-chunk arena for qualifying inter-cluster partners. A chunk of
   centers appends (partner, weight) pairs to one growable pair of flat
   arrays; [cnt] records how many belong to each center of the chunk,
   so the merge can read each center's run back without per-center
   allocations. Arenas outlive their call: a chunk takes one from
   [spare], a lock-free stack, or makes one, and the call pushes all of
   its arenas back once H is emitted, so the bins of a build reuse a
   few buffers instead of allocating a set per bin, and concurrent
   calls never share one. *)
type arena = {
  mutable base : int; (* first center index of the chunk *)
  mutable size : int; (* centers in the chunk *)
  mutable cnt : int array; (* per center of the chunk: #partners recorded *)
  mutable pv : int array;
  mutable pw : float array;
  mutable len : int;
}

let spare : arena list Atomic.t = Atomic.make []

let rec take_arena () =
  match Atomic.get spare with
  | [] -> { base = 0; size = 0; cnt = [||]; pv = [||]; pw = [||]; len = 0 }
  | ar :: rest as top ->
      if Atomic.compare_and_set spare top rest then ar else take_arena ()

let rec give_back ars =
  let top = Atomic.get spare in
  if not (Atomic.compare_and_set spare top (List.rev_append ars top)) then
    give_back ars

(* Doubles the arena; the caller writes the pair itself, so no weight
   crosses a call (a float argument is boxed). *)
let arena_grow ar =
  let cap = max 64 (2 * ar.len) in
  let pv = Array.make cap 0 and pw = Array.make cap 0.0 in
  Array.blit ar.pv 0 pv 0 ar.len;
  Array.blit ar.pw 0 pw 0 ar.len;
  ar.pv <- pv;
  ar.pw <- pw

(* H is built flat, without ever materializing a mutable graph or a
   hashtable:

     1. a member index: one counting sort on [center_of];
     2. per-center balls + qualification fan out over the pool in
        contiguous chunks, each appending to a private arena; a
        partner farther than [W_{i-1}] qualifies when the center's
        crossing stamps (its members' spanner arcs) reach it. The
        qualifying set is a pure function of the frozen inputs, so
        chunking does not change it;
     3. degrees -> prefix sum;
     4. two passes over the vertices in id order fill the slices in id
        order: the first writes each vertex into the slices of its
        neighbours with larger ids (a member into its center's, a
        center into its members' and its partners'), so every slice's
        lower part fills ascending; the second reads each vertex's
        lower part back and writes the vertex into the slices of those
        neighbours, so every upper part fills ascending too, and
        [Csr.of_arrays] only validates.

   Centers ascend (a {!Cluster_cover} invariant), so a center's arena
   run holds exactly its partners of larger id, and the runs are read
   back in center order. The result is a function of the edge set
   alone: the intra weights are read from the cover, and each inter
   weight comes from the bounded search run from the pair's smaller
   endpoint. No weight crosses a function call on the way, so nothing
   is boxed per partner. *)
let build_csr ~spanner ~cover ~w_prev =
  check_radius ~cover ~w_prev;
  let n = Csr.n_vertices spanner in
  let centers = cover.Cluster_cover.centers in
  let center_of = cover.Cluster_cover.center_of in
  let dist_to_center = cover.Cluster_cover.dist_to_center in
  let k_centers = Array.length centers in
  let ix = member_index ~center_of ~n in
  let mem_off = ix.mem_off and mem = ix.mem in
  let sp_off = spanner.Csr.off and sp_dst = spanner.Csr.dst in
  let reach = reach_of ~cover ~w_prev in
  let near = w_prev +. 1e-12 in
  (* Chunked fan-out: each chunk fetches its domain's workspace and
     ball buffers once, then scans its centers, recording qualifying
     partners in its own arena. Chunk-start indices are unique, so
     [slots.(lo)] is a race-free home for the chunk's arena. Balls are
     symmetric (sp and the qualifying conditions are), so the pair
     {a, b} is found from both centers; [b > a] keeps it only at the
     smaller. *)
  let slots : arena option array = Array.make (max 1 k_centers) None in
  Parallel.Pool.iter_chunks k_centers (fun lo hi ->
      let ar = take_arena () in
      ar.base <- lo;
      ar.size <- hi - lo;
      ar.len <- 0;
      if Array.length ar.cnt < hi - lo then ar.cnt <- Array.make (hi - lo) 0
      else Array.fill ar.cnt 0 (hi - lo) 0;
      slots.(lo) <- Some ar;
      let ws = Dijkstra.domain_workspace () in
      let vbuf, dbuf = Dijkstra.domain_ball_buffers n in
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
          let b = vbuf.(j) in
          if
            b > a
            && center_of.(b) = b
            && dbuf.(j) > 0.0
            && (dbuf.(j) <= near || stamps.(b) = ep)
          then begin
            if ar.len = Array.length ar.pv then arena_grow ar;
            ar.pv.(ar.len) <- b;
            ar.pw.(ar.len) <- dbuf.(j);
            ar.len <- ar.len + 1;
            ar.cnt.(i - lo) <- ar.cnt.(i - lo) + 1
          end
        done
      done);
  (* Step 3: one arc per (center, member) pair and per recorded inter
     pair, at both ends. *)
  let inter_degree = Array.make n 0 in
  let off = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    let a = center_of.(x) in
    if a >= 0 && a <> x then begin
      off.(x + 1) <- off.(x + 1) + 1;
      off.(a + 1) <- off.(a + 1) + 1
    end
  done;
  Array.iter
    (function
      | None -> ()
      | Some ar ->
          for ci = 0 to ar.size - 1 do
            let a = centers.(ar.base + ci) in
            inter_degree.(a) <- inter_degree.(a) + ar.cnt.(ci)
          done;
          for j = 0 to ar.len - 1 do
            let b = ar.pv.(j) in
            inter_degree.(b) <- inter_degree.(b) + 1
          done)
    slots;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + inter_degree.(u) + off.(u)
  done;
  let m2 = off.(n) in
  let dst = Array.make m2 0 and wgt = Array.make m2 0.0 in
  let cursor = ix.cursor in
  Array.blit off 0 cursor 0 n;
  (* Step 4, first pass: each vertex into the slices of its neighbours
     of larger id, so each slice's lower part fills ascending. Center
     index [ci] walks the arenas in step with the ascending centers. *)
  let ci = ref 0 and chunk = ref None and run_at = ref 0 in
  for u = 0 to n - 1 do
    let a = center_of.(u) in
    if a > u then begin
      let c = cursor.(a) in
      dst.(c) <- u;
      wgt.(c) <- dist_to_center.(u);
      cursor.(a) <- c + 1
    end;
    for p = mem_off.(u) to mem_off.(u + 1) - 1 do
      let x = mem.(p) in
      if x > u then begin
        let c = cursor.(x) in
        dst.(c) <- u;
        wgt.(c) <- dist_to_center.(x);
        cursor.(x) <- c + 1
      end
    done;
    if !ci < k_centers && centers.(!ci) = u then begin
      (match slots.(!ci) with
      | Some _ as starts ->
          chunk := starts;
          run_at := 0
      | None -> ());
      (match !chunk with
      | None -> ()
      | Some ar ->
          let run = ar.cnt.(!ci - ar.base) in
          for j = !run_at to !run_at + run - 1 do
            let b = ar.pv.(j) in
            let c = cursor.(b) in
            dst.(c) <- u;
            wgt.(c) <- ar.pw.(j);
            cursor.(b) <- c + 1
          done;
          run_at := !run_at + run);
      incr ci
    end
  done;
  (* Second pass: each vertex's lower part, now complete, names its
     neighbours of smaller id; writing the vertex into their slices in
     id order fills every upper part ascending. A slice [u] is written
     here only by larger vertices, after [u]'s own turn. *)
  for u = 0 to n - 1 do
    for k = off.(u) to cursor.(u) - 1 do
      let v = dst.(k) in
      let c = cursor.(v) in
      dst.(c) <- u;
      wgt.(c) <- wgt.(k);
      cursor.(v) <- c + 1
    done
  done;
  give_back
    (Array.fold_left
       (fun acc slot -> match slot with Some ar -> ar :: acc | None -> acc)
       [] slots);
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
