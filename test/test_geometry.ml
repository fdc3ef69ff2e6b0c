module Point = Geometry.Point
module Cone = Geometry.Cone
module Grid = Geometry.Grid
module Metric = Geometry.Metric
open Test_helpers

let random_point st dim = Point.random ~st ~dim ~lo:(-5.0) ~hi:5.0

(* ------------------------------------------------------------------ *)
(* Point                                                              *)
(* ------------------------------------------------------------------ *)

let test_point_basics () =
  let p = Point.make2 3.0 4.0 and q = Point.make2 0.0 0.0 in
  check_float "distance 3-4-5" 5.0 (Point.distance p q);
  check_float "sq_distance" 25.0 (Point.sq_distance p q);
  Alcotest.(check int) "dim" 2 (Point.dim p);
  check_float "coord" 4.0 (Point.coord p 1);
  let m = Point.midpoint p q in
  check_float "midpoint x" 1.5 (Point.coord m 0);
  check_float "norm" 5.0 (Point.norm p);
  check_float "dot" 0.0 (Point.dot (Point.make2 1.0 0.0) (Point.make2 0.0 2.0));
  Alcotest.(check bool) "equal self" true (Point.equal p p);
  Alcotest.(check bool) "not equal" false (Point.equal p q)

let test_point_errors () =
  Alcotest.check_raises "empty create" (Invalid_argument "Point.create: empty")
    (fun () -> ignore (Point.create [||]));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Point: dimension mismatch") (fun () ->
      ignore (Point.distance (Point.make2 0.0 0.0) (Point.make3 0.0 0.0 0.0)));
  Alcotest.check_raises "normalize zero"
    (Invalid_argument "Point.normalize: zero vector") (fun () ->
      ignore (Point.normalize (Point.origin 3)))

let test_angle () =
  let apex = Point.make2 0.0 0.0 in
  check_float "right angle" (Float.pi /. 2.0)
    (Point.angle ~apex (Point.make2 1.0 0.0) (Point.make2 0.0 1.0));
  check_float "straight" Float.pi
    (Point.angle ~apex (Point.make2 1.0 0.0) (Point.make2 (-2.0) 0.0));
  check_float ~eps:1e-6 "zero angle" 0.0
    (Point.angle ~apex (Point.make2 1.0 1.0) (Point.make2 2.0 2.0))

let test_segment_point_distance () =
  let a = Point.make2 0.0 0.0 and b = Point.make2 2.0 0.0 in
  check_float "above middle" 1.0
    (Point.segment_point_distance a b (Point.make2 1.0 1.0));
  check_float "beyond end" 1.0
    (Point.segment_point_distance a b (Point.make2 3.0 0.0));
  check_float "on segment" 0.0
    (Point.segment_point_distance a b (Point.make2 0.5 0.0));
  check_float "degenerate segment" 5.0
    (Point.segment_point_distance a a (Point.make2 3.0 4.0))

let prop_triangle_inequality =
  qtest "point: triangle inequality" seed_arb (fun seed ->
      let st = rand_state seed in
      let dim = 2 + Random.State.int st 3 in
      let p = random_point st dim
      and q = random_point st dim
      and r = random_point st dim in
      Point.distance p r <= Point.distance p q +. Point.distance q r +. 1e-9)

let prop_distance_symmetric =
  qtest "point: distance symmetric and nonnegative" seed_arb (fun seed ->
      let st = rand_state seed in
      let dim = 2 + Random.State.int st 3 in
      let p = random_point st dim and q = random_point st dim in
      let d = Point.distance p q in
      d >= 0.0 && close d (Point.distance q p))

let prop_law_of_cosines =
  qtest "point: angle consistent with law of cosines" seed_arb (fun seed ->
      let st = rand_state seed in
      let apex = random_point st 2
      and p = random_point st 2
      and q = random_point st 2 in
      if Point.distance apex p < 1e-6 || Point.distance apex q < 1e-6 then true
      else begin
        let a = Point.distance apex p
        and b = Point.distance apex q
        and c = Point.distance p q in
        let lhs = c *. c in
        let rhs =
          (a *. a) +. (b *. b)
          -. (2.0 *. a *. b *. cos (Point.angle ~apex p q))
        in
        close ~eps:1e-6 lhs rhs
      end)

let prop_lerp_endpoints =
  qtest "point: lerp hits endpoints" seed_arb (fun seed ->
      let st = rand_state seed in
      let p = random_point st 3 and q = random_point st 3 in
      Point.equal ~eps:1e-9 (Point.lerp p q 0.0) p
      && Point.equal ~eps:1e-9 (Point.lerp p q 1.0) q)

(* ------------------------------------------------------------------ *)
(* Cone partitions                                                    *)
(* ------------------------------------------------------------------ *)

let test_cone_2d_count () =
  let c = Cone.make ~dim:2 ~theta:(Float.pi /. 6.0) in
  Alcotest.(check int) "pi/theta sectors" 6 (Cone.cone_count c);
  Alcotest.(check int) "dim" 2 (Cone.dim c)

let prop_cone_assign_within_theta =
  qtest ~count:100 "cone: assigned axis within theta" seed_arb (fun seed ->
      let st = rand_state seed in
      let dim = 2 + Random.State.int st 2 in
      let theta = 0.3 +. Random.State.float st 0.8 in
      let c = Cone.make ~dim ~theta in
      let v =
        let rec nonzero () =
          let v = random_point st dim in
          if Point.norm v > 1e-6 then v else nonzero ()
        in
        nonzero ()
      in
      let i = Cone.assign c v in
      Cone.angle_to_axis c i v <= theta +. 1e-9)

let test_cone_errors () =
  Alcotest.check_raises "dim 1" (Invalid_argument "Cone.make: dim < 2")
    (fun () -> ignore (Cone.make ~dim:1 ~theta:0.5));
  Alcotest.check_raises "theta range"
    (Invalid_argument "Cone.make: theta out of (0, pi/2)") (fun () ->
      ignore (Cone.make ~dim:2 ~theta:2.0))

let test_cone_axes_unit () =
  let c = Cone.make ~dim:3 ~theta:0.7 in
  for i = 0 to Cone.cone_count c - 1 do
    check_float ~eps:1e-9 "unit axis" 1.0 (Point.norm (Cone.axis c i))
  done

(* ------------------------------------------------------------------ *)
(* Grid                                                               *)
(* ------------------------------------------------------------------ *)

let brute_close_pairs points radius =
  let acc = ref [] in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j q ->
          if i < j && Point.distance p q <= radius then acc := (i, j) :: !acc)
        points)
    points;
  List.sort compare !acc

let prop_grid_close_pairs =
  qtest ~count:40 "grid: close pairs match brute force" seed_arb (fun seed ->
      let st = rand_state seed in
      let n = 2 + Random.State.int st 60 in
      let dim = 2 + Random.State.int st 2 in
      let points = Array.init n (fun _ -> random_point st dim) in
      let radius = 0.5 +. Random.State.float st 1.5 in
      let grid = Grid.build ~cell:radius points in
      let got = ref [] in
      Grid.iter_close_pairs grid ~radius (fun i j _ -> got := (i, j) :: !got);
      List.sort compare !got = brute_close_pairs points radius)

(* Random instances for the radius queries: d in {2, 3}, radii up to
   and including the cell size. *)
let within_case st =
  let n = 1 + Random.State.int st 80 in
  let dim = 2 + Random.State.int st 2 in
  let points = Array.init n (fun _ -> random_point st dim) in
  let cell = 0.5 +. Random.State.float st 2.0 in
  let radius =
    if Random.State.bool st then cell else Random.State.float st cell
  in
  (points, dim, Grid.build ~cell points, radius)

(* Centres are fresh random points, not members of the indexed set. *)
let prop_grid_neighbors =
  qtest ~count:60 "grid: neighbors match brute force" seed_arb (fun seed ->
      let st = rand_state seed in
      let points, dim, grid, radius = within_case st in
      let centre = random_point st dim in
      let got = ref [] in
      Grid.iter_within grid ~radius centre (fun j d -> got := (j, d) :: !got);
      let want =
        List.filter_map
          (fun j ->
            let d = Point.distance points.(j) centre in
            if d <= radius then Some (j, d) else None)
          (List.init (Array.length points) Fun.id)
      in
      List.sort compare !got = want)

(* Many centres packed into the middle of the field, some repeated, so
   the balls overlap and cells are used up before the last centre. *)
let prop_grid_mark_within =
  qtest ~count:60 "grid: marked balls match brute force" seed_arb (fun seed ->
      let st = rand_state seed in
      let points, dim, grid, radius = within_case st in
      let fresh =
        Array.init
          (1 + Random.State.int st 40)
          (fun _ -> Point.random ~st ~dim ~lo:(-3.0) ~hi:3.0)
      in
      let centres = Array.append fresh (Array.sub fresh 0 1) in
      let marked = Grid.mark_within grid ~radius centres in
      Array.length marked = Array.length points
      && Array.for_all Fun.id
           (Array.mapi
              (fun j m ->
                m
                = Array.exists
                    (fun c -> Point.distance points.(j) c <= radius)
                    centres)
              marked))

let mark_reference points ~radius centres =
  Array.map
    (fun p -> Array.exists (fun c -> Point.distance p c <= radius) centres)
    points

(* Points on a lattice whose spacing is the radius, so many pairs lie at
   exactly the radius (on an axis) and the ball's boundary decides them;
   in 2 and 3 dimensions, with the radius equal to the cell and below
   it, and with centres at the lattice's corners as well as inside. *)
let test_grid_mark_within_exact () =
  let lattice dim side spacing =
    let pts = ref [] in
    let rec fill i acc =
      if i = dim then pts := Point.create (Array.of_list (List.rev acc)) :: !pts
      else
        for x = 0 to side - 1 do
          fill (i + 1) ((float_of_int x *. spacing) :: acc)
        done
    in
    fill 0 [];
    Array.of_list (List.rev !pts)
  in
  List.iter
    (fun (dim, side, radius, cell) ->
      let points = lattice dim side radius in
      let n = Array.length points in
      let grid = Grid.build ~cell points in
      List.iter
        (fun ids ->
          let centres = Array.map (Array.get points) ids in
          let got = Grid.mark_within grid ~radius centres in
          let want = mark_reference points ~radius centres in
          if got <> want then
            Alcotest.failf "dim %d radius %g cell %g: marker disagrees" dim
              radius cell;
          if not (Array.exists Fun.id got) && Array.length ids > 0 then
            Alcotest.failf "dim %d: no point marked" dim)
        [
          [||];
          [| 0 |];
          [| n - 1 |];
          [| n / 2; n / 2 |];
          Array.init (n / 3) (fun i -> 3 * i);
        ])
    [ (2, 7, 0.5, 0.5); (2, 7, 0.5, 0.75); (3, 5, 0.25, 0.25); (3, 5, 1.0, 1.5) ]

(* ------------------------------------------------------------------ *)
(* Metric                                                             *)
(* ------------------------------------------------------------------ *)

let test_metric () =
  let p = Point.make2 0.0 0.0 and q = Point.make2 0.5 0.0 in
  check_float "euclidean" 0.5 (Metric.weight Metric.Euclidean p q);
  check_float "energy gamma=2" 0.5
    (Metric.weight (Metric.Energy { c = 2.0; gamma = 2.0 }) p q);
  Alcotest.check_raises "gamma < 1" (Invalid_argument "Metric: gamma < 1")
    (fun () -> Metric.validate (Metric.Energy { c = 1.0; gamma = 0.5 }));
  Alcotest.check_raises "c <= 0" (Invalid_argument "Metric: c <= 0") (fun () ->
      Metric.validate (Metric.Energy { c = 0.0; gamma = 2.0 }))

let prop_metric_monotone =
  qtest "metric: energy weight monotone in distance" seed_arb (fun seed ->
      let st = rand_state seed in
      let c = 0.1 +. Random.State.float st 3.0 in
      let gamma = 1.0 +. Random.State.float st 3.0 in
      let m = Metric.Energy { c; gamma } in
      let d1 = Random.State.float st 2.0 and d2 = Random.State.float st 2.0 in
      let lo, hi = if d1 <= d2 then (d1, d2) else (d2, d1) in
      Metric.of_distance m lo <= Metric.of_distance m hi +. 1e-12)

let () =
  Alcotest.run "geometry"
    [
      ( "point",
        [
          Alcotest.test_case "basics" `Quick test_point_basics;
          Alcotest.test_case "errors" `Quick test_point_errors;
          Alcotest.test_case "angle" `Quick test_angle;
          Alcotest.test_case "segment-point distance" `Quick
            test_segment_point_distance;
          prop_triangle_inequality;
          prop_distance_symmetric;
          prop_law_of_cosines;
          prop_lerp_endpoints;
        ] );
      ( "cone",
        [
          Alcotest.test_case "2d sector count" `Quick test_cone_2d_count;
          Alcotest.test_case "errors" `Quick test_cone_errors;
          Alcotest.test_case "axes are unit" `Quick test_cone_axes_unit;
          prop_cone_assign_within_theta;
        ] );
      ( "grid",
        [
          prop_grid_close_pairs;
          prop_grid_neighbors;
          prop_grid_mark_within;
          Alcotest.test_case "mark_within at exactly the radius, 2-d and 3-d"
            `Quick test_grid_mark_within_exact;
        ] );
      ("metric", [ Alcotest.test_case "weights" `Quick test_metric; prop_metric_monotone ]);
    ]
