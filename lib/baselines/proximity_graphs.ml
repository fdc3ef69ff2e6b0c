module Point = Geometry.Point
module Wgraph = Graph.Wgraph
module Model = Ubg.Model

(* Witness scan around the edge midpoint: any Gabriel/RNG witness for
   {u, v} lies within |uv| of the midpoint, so a grid whose cell is the
   longest edge answers every edge's scan from at most 3^d cells. *)
let filtered model ~blocks =
  let points = model.Model.points in
  let out = Wgraph.create (Model.n model) in
  let longest = ref 0.0 in
  Wgraph.iter_edges model.Model.graph (fun _ _ w ->
      longest := Float.max !longest w);
  if !longest > 0.0 then begin
    let grid = Geometry.Grid.build ~cell:!longest points in
    Wgraph.iter_edges model.Model.graph (fun u v w ->
        let pu = points.(u) and pv = points.(v) in
        let blocked = ref false in
        Geometry.Grid.iter_within grid ~radius:w (Point.midpoint pu pv)
          (fun z _ ->
            if
              (not !blocked) && z <> u && z <> v
              && blocks ~pu ~pv ~w points.(z)
            then blocked := true);
        if not !blocked then Wgraph.add_edge out u v w)
  end;
  out

let gabriel model =
  let blocks ~pu ~pv ~w:_ pz =
    (* Inside the open ball with diameter uv: the angle at z is obtuse,
       equivalently |uz|^2 + |vz|^2 < |uv|^2. *)
    let duz2 = Point.sq_distance pu pz and dvz2 = Point.sq_distance pv pz in
    duz2 +. dvz2 < Point.sq_distance pu pv -. 1e-15
  in
  filtered model ~blocks

let rng model =
  let blocks ~pu ~pv ~w pz =
    let duz = Point.distance pu pz and dvz = Point.distance pv pz in
    max duz dvz < w -. 1e-12
  in
  filtered model ~blocks
