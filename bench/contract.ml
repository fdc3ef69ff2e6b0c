(* The oracle contract on sampled pairs, one checker for the E-qps and
   E-repair gates.

   For each pair the oracle's DIST answer must lie in [d, (1 + eps) d]
   against an exact CSR Dijkstra; an answer that ran a search (the
   workspace's near count moved) must equal that Dijkstra bit for bit;
   and [spanner_path] must return a spanner walk from source to target
   whose length is the answer. Answers read off the tables (the far
   count moved) are counted apart, so a gate can require enough of
   them. *)

type t = {
  eps : float;
  mutable pairs : int;
  mutable far : int; (* answers read off the tables *)
  mutable near : int; (* answers a search gave *)
  mutable outside : int; (* answers outside [d, (1 + eps) d] *)
  mutable near_inexact : int; (* searched answers not bit for bit d *)
  mutable bad_routes : int; (* routes not a walk of the answer's length *)
  mutable max_ratio : float; (* largest answer / d over d > 0 *)
}

let create ~eps =
  {
    eps;
    pairs = 0;
    far = 0;
    near = 0;
    outside = 0;
    near_inexact = 0;
    bad_routes = 0;
    max_ratio = 1.0;
  }

let is_walk_of_length csr ~est ~u ~v route =
  let k = Array.length route in
  let len = ref 0.0 and ok = ref (route.(0) = u && route.(k - 1) = v) in
  for i = 0 to k - 2 do
    match Graph.Csr.weight csr route.(i) route.(i + 1) with
    | Some w -> len := !len +. w
    | None -> ok := false
  done;
  !ok && Float.abs (!len -. est) <= 1e-6 *. Float.max 1.0 est

(* Checks the pair (u, v) of [oracle] over [csr] through [qws] and adds
   it to [c]. Returns [None] when the pair keeps the contract, and a
   description of the pair otherwise. *)
let check c oracle qws csr u v =
  let far0 = Oracle.Dist.far_answers qws in
  let near0 = Oracle.Dist.near_answers qws in
  let est = Oracle.Dist.distance_estimate oracle qws u v in
  let searched = Oracle.Dist.near_answers qws > near0 in
  let exact = Graph.Dijkstra.distance_csr csr u v in
  c.pairs <- c.pairs + 1;
  if Oracle.Dist.far_answers qws > far0 then c.far <- c.far + 1;
  if searched then c.near <- c.near + 1;
  let outside =
    if exact = infinity then est <> infinity
    else est < exact -. 1e-9 || est > (1.0 +. c.eps) *. exact
  in
  if exact > 0.0 && exact < infinity then
    c.max_ratio <- Float.max c.max_ratio (est /. exact);
  let inexact =
    searched && Int64.bits_of_float est <> Int64.bits_of_float exact
  in
  let bad_route =
    match Oracle.Dist.spanner_path oracle qws ~src:u ~dst:v with
    | None -> est <> infinity
    | Some route -> not (is_walk_of_length csr ~est ~u ~v route)
  in
  if outside then c.outside <- c.outside + 1;
  if inexact then c.near_inexact <- c.near_inexact + 1;
  if bad_route then c.bad_routes <- c.bad_routes + 1;
  if outside || inexact || bad_route then
    Some
      (Printf.sprintf "pair (%d, %d): answer %.17g, exact %.17g%s%s" u v est
         exact
         (if searched then ", searched" else "")
         (if bad_route then ", bad route" else ""))
  else None

let pass c =
  c.outside = 0 && c.near_inexact = 0 && c.bad_routes = 0
  && c.max_ratio <= 1.0 +. c.eps

let to_json c =
  Obs.Json.(
    Obj
      [
        ("pairs", int c.pairs); ("far", int c.far); ("near", int c.near);
        ("outside", int c.outside); ("near_inexact", int c.near_inexact);
        ("max_ratio", Num c.max_ratio); ("bound", Num (1.0 +. c.eps));
        ("bad_routes", int c.bad_routes); ("pass", Bool (pass c));
      ])

let summary c =
  Printf.sprintf
    "%d pairs (%d from the tables, %d searched): %s (max answer/exact \
     %.4f, bound %.4f; %d outside [d, (1+eps) d], %d searched answers not \
     exact, %d routes not a walk of the answer's length)"
    c.pairs c.far c.near
    (if pass c then "PASS" else "FAIL")
    c.max_ratio (1.0 +. c.eps) c.outside c.near_inexact c.bad_routes
