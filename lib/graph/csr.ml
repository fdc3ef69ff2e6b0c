type t = { off : int array; dst : int array; wgt : float array }

let n_vertices c = Array.length c.off - 1
let n_edges c = Array.length c.dst / 2

let check_vertex c u =
  if u < 0 || u >= n_vertices c then invalid_arg "Csr: vertex out of range"

(* Sort one adjacency slice [lo, hi) by neighbor id, in place on the
   parallel arrays: no tuple per arc, no comparison closure. Ids are
   unique within a slice, so any correct sort yields the one canonical
   layout. Slices of up to 64 arcs (nearly all of them: a base UBG
   slice at expected degree 10 holds 10 to 40) take an insertion sort,
   which beats a heapsort at that size; longer ones take a heapsort,
   so a hub's slice stays O(d log d). *)
let swap_arcs (dst : int array) (wgt : float array) i j =
  let v = dst.(i) and w = wgt.(i) in
  dst.(i) <- dst.(j);
  wgt.(i) <- wgt.(j);
  dst.(j) <- v;
  wgt.(j) <- w

(* Sift the arc at [lo + i] down the max-heap of [size] arcs at [lo]. *)
let sift_arcs (dst : int array) (wgt : float array) lo i size =
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let big = if l < size && dst.(lo + l) > dst.(lo + !i) then l else !i in
    let big =
      if l + 1 < size && dst.(lo + l + 1) > dst.(lo + big) then l + 1 else big
    in
    if big = !i then moving := false
    else begin
      swap_arcs dst wgt (lo + !i) (lo + big);
      i := big
    end
  done

let sort_slice (dst : int array) (wgt : float array) lo hi =
  let len = hi - lo in
  if len <= 64 then
    for k = lo + 1 to hi - 1 do
      let v = dst.(k) and w = wgt.(k) in
      let j = ref (k - 1) in
      while !j >= lo && dst.(!j) > v do
        dst.(!j + 1) <- dst.(!j);
        wgt.(!j + 1) <- wgt.(!j);
        decr j
      done;
      dst.(!j + 1) <- v;
      wgt.(!j + 1) <- w
    done
  else begin
    for i = (len / 2) - 1 downto 0 do
      sift_arcs dst wgt lo i len
    done;
    for size = len - 1 downto 1 do
      swap_arcs dst wgt lo (lo + size);
      sift_arcs dst wgt lo 0 size
    done
  end

let of_arrays ~off ~dst ~wgt =
  let n = Array.length off - 1 in
  if n < 0 then invalid_arg "Csr.of_arrays: empty offset array";
  let m2 = Array.length dst in
  if Array.length wgt <> m2 then
    invalid_arg "Csr.of_arrays: dst/wgt length mismatch";
  if off.(0) <> 0 || off.(n) <> m2 then
    invalid_arg "Csr.of_arrays: offsets do not span the arcs";
  for u = 0 to n - 1 do
    let lo = off.(u) and hi = off.(u + 1) in
    if hi < lo || hi > m2 then invalid_arg "Csr.of_arrays: decreasing offsets";
    (* Slices must be sorted by id for binary search and deterministic
       iteration; sort any slice that arrived out of order. *)
    let sorted = ref true in
    for k = lo to hi - 1 do
      if dst.(k) < 0 || dst.(k) >= n then
        invalid_arg "Csr.of_arrays: arc target out of range";
      if k > lo && dst.(k) <= dst.(k - 1) then sorted := false
    done;
    if not !sorted then sort_slice dst wgt lo hi
  done;
  { off; dst; wgt }

(* One pass over the hashtable slices, emitting arcs into buffers of
   the degree sum; hashtable order is not deterministic, so
   [of_arrays] sorts. *)
let of_wgraph g =
  let n = Wgraph.n_vertices g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Wgraph.degree g u
  done;
  let dst = Array.make off.(n) 0 and wgt = Array.make off.(n) 0.0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    Wgraph.iter_neighbors g u (fun v w ->
        dst.(!k) <- v;
        wgt.(!k) <- w;
        incr k)
  done;
  of_arrays ~off ~dst ~wgt

let degree c u =
  check_vertex c u;
  c.off.(u + 1) - c.off.(u)

let max_degree c =
  let m = ref 0 in
  for u = 0 to n_vertices c - 1 do
    let d = c.off.(u + 1) - c.off.(u) in
    if d > !m then m := d
  done;
  !m

(* Index of v in u's sorted slice, -1 if absent. *)
let find_arc c u v =
  let lo = ref c.off.(u) and hi = ref (c.off.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = c.dst.(mid) in
    if x = v then found := mid
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* The region's slices copied out of the snapshot, dropping arcs that
   leave the region: one pass counts the kept arcs into the offsets, so
   the arc arrays are allocated at their size, and one copies them. An
   ascending region keeps every slice ascending, so [of_arrays] only
   validates. *)
let restrict c ~region ~local_of =
  let nr = Array.length region in
  let off = Array.make (nr + 1) 0 in
  for i = 0 to nr - 1 do
    let u = region.(i) in
    let kept = ref 0 in
    for k = c.off.(u) to c.off.(u + 1) - 1 do
      if local_of.(c.dst.(k)) >= 0 then incr kept
    done;
    off.(i + 1) <- off.(i) + !kept
  done;
  let dst = Array.make off.(nr) 0 and wgt = Array.make off.(nr) 0.0 in
  for i = 0 to nr - 1 do
    let u = region.(i) in
    let m2 = ref off.(i) in
    for k = c.off.(u) to c.off.(u + 1) - 1 do
      let j = local_of.(c.dst.(k)) in
      if j >= 0 then begin
        dst.(!m2) <- j;
        wgt.(!m2) <- c.wgt.(k);
        incr m2
      end
    done
  done;
  of_arrays ~off ~dst ~wgt

(* Two passes over the arcs, as in [restrict]: one counts the kept arcs
   into the offsets, one copies them; dropping arcs keeps every slice
   sorted. *)
let isolate c ~n vs =
  let n0 = n_vertices c in
  if n < n0 then invalid_arg "Csr.isolate: fewer vertices than the snapshot";
  let cut = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Csr.isolate: vertex out of range";
      cut.(v) <- true)
    vs;
  let kept u k = not (cut.(u) || cut.(c.dst.(k))) in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let d = ref 0 in
    if u < n0 then
      for k = c.off.(u) to c.off.(u + 1) - 1 do
        if kept u k then incr d
      done;
    off.(u + 1) <- off.(u) + !d
  done;
  let dst = Array.make off.(n) 0 and wgt = Array.make off.(n) 0.0 in
  for u = 0 to n0 - 1 do
    let o = ref off.(u) in
    for k = c.off.(u) to c.off.(u + 1) - 1 do
      if kept u k then begin
        dst.(!o) <- c.dst.(k);
        wgt.(!o) <- c.wgt.(k);
        incr o
      end
    done
  done;
  { off; dst; wgt }

(* The batch as arcs in both directions, sorted by (source, target) and
   cut to one arc per pair at its smallest weight; then one pass over
   the vertices: a run of vertices without new arcs is blitted whole,
   its offsets shifted by the arcs added before it, and a touched
   vertex's slice is merged with its new arcs by target. *)
let add_edges c (edges : Wgraph.edge array) =
  let n = n_vertices c in
  let k = 2 * Array.length edges in
  if k = 0 then c
  else begin
    let src = Array.make k 0 and tgt = Array.make k 0 and aw = Array.make k 0.0 in
    Array.iteri
      (fun i (e : Wgraph.edge) ->
        check_vertex c e.u;
        check_vertex c e.v;
        if e.u = e.v then invalid_arg "Csr.add_edges: self loop";
        if e.w <= 0.0 then invalid_arg "Csr.add_edges: nonpositive weight";
        src.(2 * i) <- e.u;
        tgt.(2 * i) <- e.v;
        src.((2 * i) + 1) <- e.v;
        tgt.((2 * i) + 1) <- e.u;
        aw.(2 * i) <- e.w;
        aw.((2 * i) + 1) <- e.w)
      edges;
    let order = Array.init k Fun.id in
    Array.sort
      (fun a b ->
        let d = Int.compare src.(a) src.(b) in
        if d <> 0 then d else Int.compare tgt.(a) tgt.(b))
      order;
    (* Distinct batch arcs [0, nb), sorted, at their smallest weight. *)
    let bs = Array.make k 0 and bt = Array.make k 0 and bw = Array.make k 0.0 in
    let nb = ref 0 in
    Array.iter
      (fun a ->
        let last = !nb - 1 in
        if last >= 0 && bs.(last) = src.(a) && bt.(last) = tgt.(a) then begin
          if aw.(a) < bw.(last) then bw.(last) <- aw.(a)
        end
        else begin
          bs.(!nb) <- src.(a);
          bt.(!nb) <- tgt.(a);
          bw.(!nb) <- aw.(a);
          incr nb
        end)
      order;
    let nb = !nb in
    let fresh = ref 0 in
    for a = 0 to nb - 1 do
      if find_arc c bs.(a) bt.(a) < 0 then incr fresh
    done;
    let m2 = Array.length c.dst + !fresh in
    let off = Array.make (n + 1) 0 in
    let dst = Array.make m2 0 and wgt = Array.make m2 0.0 in
    (* [u0] is the first vertex not yet written, [shift] the arcs added
       at vertices before it. *)
    let u0 = ref 0 and shift = ref 0 and a = ref 0 in
    let blit_upto u =
      let lo = c.off.(!u0) and hi = c.off.(u) in
      Array.blit c.dst lo dst (lo + !shift) (hi - lo);
      Array.blit c.wgt lo wgt (lo + !shift) (hi - lo);
      for x = !u0 to u - 1 do
        off.(x) <- c.off.(x) + !shift
      done
    in
    while !a < nb do
      let u = bs.(!a) in
      blit_upto u;
      off.(u) <- c.off.(u) + !shift;
      let o = ref (off.(u)) and i = ref c.off.(u) and hi = c.off.(u + 1) in
      let emit v w =
        dst.(!o) <- v;
        wgt.(!o) <- w;
        incr o
      in
      while !a < nb && bs.(!a) = u do
        let v = bt.(!a) in
        while !i < hi && c.dst.(!i) < v do
          emit c.dst.(!i) c.wgt.(!i);
          incr i
        done;
        if !i < hi && c.dst.(!i) = v then begin
          emit v (if bw.(!a) < c.wgt.(!i) then bw.(!a) else c.wgt.(!i));
          incr i
        end
        else emit v bw.(!a);
        incr a
      done;
      while !i < hi do
        emit c.dst.(!i) c.wgt.(!i);
        incr i
      done;
      shift := !o - c.off.(u + 1);
      u0 := u + 1
    done;
    blit_upto n;
    off.(n) <- m2;
    { off; dst; wgt }
  end

let mem_edge c u v =
  check_vertex c u;
  check_vertex c v;
  find_arc c u v >= 0

let weight c u v =
  check_vertex c u;
  check_vertex c v;
  let k = find_arc c u v in
  if k < 0 then None else Some c.wgt.(k)

let iter_neighbors c u f =
  check_vertex c u;
  for k = c.off.(u) to c.off.(u + 1) - 1 do
    f c.dst.(k) c.wgt.(k)
  done

let fold_neighbors c u f acc =
  check_vertex c u;
  let acc = ref acc in
  for k = c.off.(u) to c.off.(u + 1) - 1 do
    acc := f c.dst.(k) c.wgt.(k) !acc
  done;
  !acc

let neighbors c u =
  check_vertex c u;
  let acc = ref [] in
  for k = c.off.(u + 1) - 1 downto c.off.(u) do
    acc := (c.dst.(k), c.wgt.(k)) :: !acc
  done;
  !acc

let iter_edges c f =
  for u = 0 to n_vertices c - 1 do
    for k = c.off.(u) to c.off.(u + 1) - 1 do
      let v = c.dst.(k) in
      if u < v then f u v c.wgt.(k)
    done
  done

let edges c =
  let out = Array.make (n_edges c) { Wgraph.u = 0; v = 0; w = 0.0 } in
  let i = ref 0 in
  iter_edges c (fun u v w ->
      out.(!i) <- { Wgraph.u; v; w };
      incr i);
  out

let total_weight c =
  let acc = ref 0.0 in
  iter_edges c (fun _ _ w -> acc := !acc +. w);
  !acc

let diff ~before ~after =
  let added = ref [] and removed = ref [] in
  let n_b = n_vertices before and n_a = n_vertices after in
  (* Merge the two sorted slices of u, looking only at arcs u -> v with
     v > u so every undirected edge is classified exactly once. A weight
     change counts as removal of the old edge plus addition of the new. *)
  for u = 0 to max n_b n_a - 1 do
    let lo_b = if u < n_b then before.off.(u) else 0
    and hi_b = if u < n_b then before.off.(u + 1) else 0
    and lo_a = if u < n_a then after.off.(u) else 0
    and hi_a = if u < n_a then after.off.(u + 1) else 0 in
    let i = ref lo_b and j = ref lo_a in
    while !i < hi_b && before.dst.(!i) <= u do incr i done;
    while !j < hi_a && after.dst.(!j) <= u do incr j done;
    while !i < hi_b || !j < hi_a do
      if !i >= hi_b then begin
        added := { Wgraph.u; v = after.dst.(!j); w = after.wgt.(!j) } :: !added;
        incr j
      end
      else if !j >= hi_a then begin
        removed :=
          { Wgraph.u; v = before.dst.(!i); w = before.wgt.(!i) } :: !removed;
        incr i
      end
      else
        let vb = before.dst.(!i) and va = after.dst.(!j) in
        if vb = va then begin
          if before.wgt.(!i) <> after.wgt.(!j) then begin
            removed := { Wgraph.u; v = vb; w = before.wgt.(!i) } :: !removed;
            added := { Wgraph.u; v = va; w = after.wgt.(!j) } :: !added
          end;
          incr i;
          incr j
        end
        else if vb < va then begin
          removed := { Wgraph.u; v = vb; w = before.wgt.(!i) } :: !removed;
          incr i
        end
        else begin
          added := { Wgraph.u; v = va; w = after.wgt.(!j) } :: !added;
          incr j
        end
    done
  done;
  ( Array.of_list (List.rev !added),
    Array.of_list (List.rev !removed) )

let to_wgraph c =
  let g = Wgraph.create (n_vertices c) in
  iter_edges c (fun u v w -> Wgraph.add_edge g u v w);
  g
