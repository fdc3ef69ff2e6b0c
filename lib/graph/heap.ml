type t = {
  mutable size : int;
  keys : int array; (* heap slot -> key *)
  prios : float array; (* heap slot -> priority *)
  pos : int array; (* key -> heap slot, or -1 when absent *)
}

let create capacity =
  if capacity < 0 then invalid_arg "Heap.create: negative capacity";
  {
    size = 0;
    keys = Array.make (max capacity 1) (-1);
    prios = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
  }

let is_empty t = t.size = 0
let size t = t.size

let mem t k = k >= 0 && k < Array.length t.pos && t.pos.(k) >= 0

let priority t k =
  if not (mem t k) then raise Not_found;
  t.prios.(t.pos.(k))

let swap t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  t.keys.(i) <- kj;
  t.keys.(j) <- ki;
  let pi = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- pi;
  t.pos.(kj) <- i;
  t.pos.(ki) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prios.(i) < t.prios.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.prios.(l) < t.prios.(!smallest) then smallest := l;
  if r < t.size && t.prios.(r) < t.prios.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let insert t k p =
  if k < 0 || k >= Array.length t.pos then invalid_arg "Heap.insert: key range";
  if t.pos.(k) >= 0 then invalid_arg "Heap.insert: duplicate key";
  let i = t.size in
  t.size <- t.size + 1;
  t.keys.(i) <- k;
  t.prios.(i) <- p;
  t.pos.(k) <- i;
  sift_up t i

let decrease t k p =
  if not (mem t k) then raise Not_found;
  let i = t.pos.(k) in
  if p > t.prios.(i) then invalid_arg "Heap.decrease: priority increase";
  t.prios.(i) <- p;
  sift_up t i

let insert_or_decrease t k p =
  if mem t k then begin
    if p < priority t k then decrease t k p
  end
  else insert t k p

let peek_min t =
  if t.size = 0 then raise Not_found;
  (t.keys.(0), t.prios.(0))

let pop_min t =
  let k, p = peek_min t in
  let last = t.size - 1 in
  swap t 0 last;
  t.size <- last;
  t.pos.(k) <- -1;
  if t.size > 0 then sift_down t 0;
  (k, p)
