type t = {
  r : float;
  alpha : float;
  n : int;
  m : int;
  thresholds : float array;
}

(* The thresholds are one multiplication chain, alpha / n times r at
   each step, not [w]'s [r ** i], which need not match it at a
   boundary: [index] classifies exactly as walking the chain would. *)
let make ~params ~n =
  if n <= 0 then invalid_arg "Bins.make: n <= 0";
  let r = params.Params.r and alpha = params.Params.alpha in
  let m =
    max 1 (int_of_float (ceil (log (float_of_int n /. alpha) /. log r)))
  in
  let thresholds = Array.make m (alpha /. float_of_int n) in
  for i = 1 to m - 1 do
    thresholds.(i) <- thresholds.(i - 1) *. r
  done;
  { r; alpha; n; m; thresholds }

let count b = b.m + 1

let w b i =
  if i < 0 || i > b.m then invalid_arg "Bins.w: index";
  (b.r ** float_of_int i) *. b.alpha /. float_of_int b.n

(* The first bin whose chain threshold is at least [len], or the top
   bin [m]: a binary search over the nondecreasing chain, so no float
   log can misclassify a boundary. *)
let index b len =
  if len <= 0.0 || len > 1.0 +. 1e-12 then invalid_arg "Bins.index: length";
  let lo = ref 0 and hi = ref b.m in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if len <= b.thresholds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let interval b i =
  if i < 0 || i > b.m then invalid_arg "Bins.interval: index";
  if i = 0 then (0.0, w b 0) else (w b (i - 1), w b i)

let partition b edges =
  let out = Array.make (count b) [] in
  List.iter
    (fun (e : Graph.Wgraph.edge) ->
      let i = index b e.w in
      out.(i) <- e :: out.(i))
    edges;
  Array.map (fun bin -> Array.of_list (List.rev bin)) out
