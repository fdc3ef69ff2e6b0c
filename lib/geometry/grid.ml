(* Flat bucket layout: points are counting-sorted into dense cell ids,
   so a cell's members are one contiguous slice of [cell_pts] — no
   per-cell list cells, no string keys. Cell coordinate vectors are
   interned in an open-addressing table keyed by the vectors
   themselves, which keeps the index correct for any dimension and any
   coordinate magnitude without allocating per lookup; every scan
   after that is integer arithmetic over flat arrays. *)
type t = {
  cell : float;
  dim : int;
  points : Point.t array;
  slots : int array; (* power-of-two table: dense cell id, or -1 *)
  cell_coord : int array; (* n_cells * dim, coord vector of each cell *)
  cell_start : int array; (* n_cells + 1, slice bounds into cell_pts *)
  cell_pts : int array; (* point ids, bucketed by cell, ascending *)
}

let coord_of ~cell x = int_of_float (floor (x /. cell))

(* Multiplicative hash of the coord vector [key.(off) .. key.(off +
   dim - 1)]; the top bits are the well-mixed ones. *)
let hash key off dim =
  let h = ref 0 in
  for k = off to off + dim - 1 do
    h := (!h + key.(k)) * 0x9E3779B97F4A7C1
  done;
  !h lsr 30

(* Linear probing from slot [s]: the slot holding the cell whose coord
   vector is [key]'s row at [off], or the empty slot where it belongs.
   Top-level rather than a local closure, so a lookup allocates
   nothing; the coordinates are typed [int], so comparing them is an
   integer compare, not the polymorphic [caml_equal]. *)
let rec linear_probe ~slots ~(coords : int array) ~dim (key : int array) off s
    =
  let id = slots.(s) in
  if id < 0 then s
  else begin
    let k = ref 0 in
    while !k < dim && coords.((id * dim) + !k) = key.(off + !k) do
      incr k
    done;
    if !k = dim then s
    else
      linear_probe ~slots ~coords ~dim key off
        ((s + 1) land (Array.length slots - 1))
  end

let slot_of ~slots ~coords ~dim key off =
  linear_probe ~slots ~coords ~dim key off
    (hash key off dim land (Array.length slots - 1))

let build ~cell points =
  if cell <= 0.0 then invalid_arg "Grid.build: cell <= 0";
  if Array.length points = 0 then invalid_arg "Grid.build: empty";
  let dim = Point.dim points.(0) in
  Array.iter
    (fun p ->
      if Point.dim p <> dim then invalid_arg "Grid.build: mixed dimensions")
    points;
  let n = Array.length points in
  let pt_cell = Array.make n 0 in
  (* At most n cells, so a table of at least 2n slots is never more
     than half full. Each point's coord vector is written into the next
     free row of [coords] and looked up from there: a new cell keeps
     the row, a known one leaves it to be overwritten. *)
  let size = ref 2 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let slots = Array.make !size (-1) in
  let coords = Array.make (n * dim) 0 in
  let n_cells = ref 0 in
  for i = 0 to n - 1 do
    let off = !n_cells * dim in
    for d = 0 to dim - 1 do
      coords.(off + d) <- coord_of ~cell (Point.coord points.(i) d)
    done;
    let s = slot_of ~slots ~coords ~dim coords off in
    if slots.(s) < 0 then begin
      slots.(s) <- !n_cells;
      incr n_cells
    end;
    pt_cell.(i) <- slots.(s)
  done;
  let n_cells = !n_cells in
  let cell_coord = Array.sub coords 0 (n_cells * dim) in
  (* Counting sort: each cell's members end up as one ascending run. *)
  let cell_start = Array.make (n_cells + 1) 0 in
  Array.iter (fun c -> cell_start.(c + 1) <- cell_start.(c + 1) + 1) pt_cell;
  for c = 0 to n_cells - 1 do
    cell_start.(c + 1) <- cell_start.(c + 1) + cell_start.(c)
  done;
  let cursor = Array.sub cell_start 0 n_cells in
  let cell_pts = Array.make n 0 in
  Array.iteri
    (fun i c ->
      cell_pts.(cursor.(c)) <- i;
      cursor.(c) <- cursor.(c) + 1)
    pt_cell;
  { cell; dim; points; slots; cell_coord; cell_start; cell_pts }

(* Dense id of the cell with coord vector [probe], or -1 if empty. *)
let find_cell t probe =
  t.slots.(slot_of ~slots:t.slots ~coords:t.cell_coord ~dim:t.dim probe 0)

let check_radius t ~radius name =
  if radius > t.cell +. 1e-12 then invalid_arg (name ^ ": radius > cell")

(* Visit the dense id of every occupied cell that meets the box
   [p - radius, p + radius], reusing one probe vector. With
   [radius <= cell] that is at most 3 cells per axis, and only 2 when
   the box does not straddle a whole cell. *)
let iter_box_cells t p ~radius f =
  if Point.dim p <> t.dim then invalid_arg "Grid: query dimension mismatch";
  let probe = Array.make t.dim 0 in
  let rec loop i =
    if i = t.dim then (
      let id = find_cell t probe in
      if id >= 0 then f id)
    else begin
      let x = Point.coord p i in
      for c = coord_of ~cell:t.cell (x -. radius)
          to coord_of ~cell:t.cell (x +. radius) do
        probe.(i) <- c;
        loop (i + 1)
      done
    end
  in
  loop 0

let iter_within t ~radius p f =
  check_radius t ~radius "Grid.iter_within";
  iter_box_cells t p ~radius (fun id ->
      for k = t.cell_start.(id) to t.cell_start.(id + 1) - 1 do
        let j = t.cell_pts.(k) in
        let dist = Point.distance t.points.(j) p in
        if dist <= radius then f j dist
      done)

(* Every offset in {-1, 0, 1}^d, the zero offset first. *)
let all_offsets d =
  let acc = ref [] in
  let offset = Array.make d 0 in
  let rec loop i =
    if i = d then begin
      if Array.exists (fun x -> x <> 0) offset then
        acc := Array.copy offset :: !acc
    end
    else
      for v = -1 to 1 do
        offset.(i) <- v;
        loop (i + 1)
      done
  in
  loop 0;
  Array.of_list (Array.make d 0 :: List.rev !acc)

(* Union of balls, point by point. The centres are bucketed by cell in
   a private table laid out like the grid's own ([ccoord] rows,
   [cslots] slots, [cstart]/[cpts] a counting sort by bucket). One
   lookup per bucket and offset then files the bucket in the near list
   of each occupied cell around it ([head] and [next]; entry
   [b * n_off + oi] stands for bucket [b] at offset [oi]): by symmetry
   a cell's list names exactly the buckets of its 3^d neighbouring
   cells. The zero offset is filed last, so a cell's own bucket heads
   its list. Each point of a listed cell is tested against its list's
   centres until the first hit: with [radius <= cell] a centre within
   the radius lies in a neighbouring cell, so a point costs the centres
   near it up to its first hit, never one test per ball that covers
   it, and no cell is looked up per point or per visit. *)
let mark_within t ~radius centres =
  check_radius t ~radius "Grid.mark_within";
  let dim = t.dim and cell = t.cell in
  let marked = Array.make (Array.length t.points) false in
  let k = Array.length centres in
  let size = ref 2 in
  while !size < 2 * k do
    size := 2 * !size
  done;
  let cslots = Array.make !size (-1) and ccoord = Array.make (k * dim) 0 in
  let bucket = Array.make k 0 and nb = ref 0 in
  Array.iteri
    (fun i p ->
      if Point.dim p <> dim then invalid_arg "Grid: query dimension mismatch";
      let off = !nb * dim in
      for d = 0 to dim - 1 do
        ccoord.(off + d) <- coord_of ~cell (Point.coord p d)
      done;
      let s = slot_of ~slots:cslots ~coords:ccoord ~dim ccoord off in
      if cslots.(s) < 0 then begin
        cslots.(s) <- !nb;
        incr nb
      end;
      bucket.(i) <- cslots.(s))
    centres;
  let nb = !nb in
  let cstart = Array.make (nb + 1) 0 in
  Array.iter (fun b -> cstart.(b + 1) <- cstart.(b + 1) + 1) bucket;
  for b = 0 to nb - 1 do
    cstart.(b + 1) <- cstart.(b + 1) + cstart.(b)
  done;
  let cursor = Array.sub cstart 0 nb and cpts = Array.make k 0 in
  Array.iteri
    (fun i b ->
      cpts.(cursor.(b)) <- i;
      cursor.(b) <- cursor.(b) + 1)
    bucket;
  let offsets = all_offsets dim in
  let n_off = Array.length offsets in
  let n_cells = Array.length t.cell_start - 1 in
  let head = Array.make n_cells (-1) in
  let next = Array.make (nb * n_off) (-1) in
  let listed = Array.make (min n_cells (nb * n_off)) 0 and n_listed = ref 0 in
  let probe = Array.make dim 0 in
  for oi = n_off - 1 downto 0 do
    let o = offsets.(oi) in
    for b = 0 to nb - 1 do
      for d = 0 to dim - 1 do
        probe.(d) <- ccoord.((b * dim) + d) + o.(d)
      done;
      let c = find_cell t probe in
      if c >= 0 then begin
        if head.(c) < 0 then begin
          listed.(!n_listed) <- c;
          incr n_listed
        end;
        let e = (b * n_off) + oi in
        next.(e) <- head.(c);
        head.(c) <- e
      end
    done
  done;
  let near = Array.make n_off 0 in
  for i = 0 to !n_listed - 1 do
    let c = listed.(i) in
    let nn = ref 0 and e = ref head.(c) in
    while !e >= 0 do
      near.(!nn) <- !e / n_off;
      incr nn;
      e := next.(!e)
    done;
    for q = t.cell_start.(c) to t.cell_start.(c + 1) - 1 do
      let j = t.cell_pts.(q) in
      let hit = ref false and a = ref 0 in
      while (not !hit) && !a < !nn do
        let b = near.(!a) in
        let x = ref cstart.(b) in
        while (not !hit) && !x < cstart.(b + 1) do
          hit := Point.distance t.points.(j) centres.(cpts.(!x)) <= radius;
          incr x
        done;
        incr a
      done;
      marked.(j) <- !hit
    done
  done;
  marked

(* Lexicographically positive offsets of {-1,0,1}^d: first nonzero
   component positive. Scanning only these (plus the home cell) visits
   every unordered cell pair exactly once — a (3^d - 1) / 2 + 1 scan
   per cell instead of 3^d per point. [all_offsets] lists them in
   lexicographic order after the zero offset, which is not positive. *)
let half_offsets d =
  let rec positive o j =
    j < d && (o.(j) > 0 || (o.(j) = 0 && positive o (j + 1)))
  in
  Array.of_list
    (List.filter (fun o -> positive o 0) (Array.to_list (all_offsets d)))

let iter_close_pairs t ~radius f =
  check_radius t ~radius "Grid.iter_close_pairs";
  let d = t.dim in
  let n_cells = Array.length t.cell_start - 1 in
  let offsets = half_offsets d in
  let probe = Array.make d 0 in
  let emit i j =
    let a = min i j and b = max i j in
    let dist = Point.distance t.points.(a) t.points.(b) in
    if dist <= radius then f a b dist
  in
  for ci = 0 to n_cells - 1 do
    let lo = t.cell_start.(ci) and hi = t.cell_start.(ci + 1) in
    (* Within-cell pairs: the run is ascending, so i < j directly. *)
    for a = lo to hi - 1 do
      for b = a + 1 to hi - 1 do
        emit t.cell_pts.(a) t.cell_pts.(b)
      done
    done;
    (* Cross-cell pairs through the positive half-neighborhood. *)
    let base = ci * d in
    Array.iter
      (fun off ->
        for k = 0 to d - 1 do
          probe.(k) <- t.cell_coord.(base + k) + off.(k)
        done;
        let cj = find_cell t probe in
        if cj >= 0 then
          for a = lo to hi - 1 do
            for b = t.cell_start.(cj) to t.cell_start.(cj + 1) - 1 do
              emit t.cell_pts.(a) t.cell_pts.(b)
            done
          done)
      offsets
  done
