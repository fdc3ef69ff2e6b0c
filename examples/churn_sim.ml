(* Churn simulation: maintain a (1+eps)-spanner incrementally while
   nodes join, leave and move, re-certifying every epoch.

   Run with:  dune exec examples/churn_sim.exe *)

let () =
  (* 1. Drop 300 radios uniformly and build the initial spanner. *)
  let n = 300 and alpha = 0.8 and eps = 0.5 in
  let side =
    Ubg.Generator.side_for_expected_degree ~dim:2 ~n ~alpha ~degree:10.0
  in
  let model =
    Ubg.Generator.connected ~seed:2026 ~dim:2 ~n ~alpha
      (Ubg.Generator.Uniform { side })
  in
  let params = Topo.Params.of_epsilon ~eps ~alpha ~dim:2 in
  let engine = Dynamic.Engine.create ~params model in
  Format.printf "initial : %a@." Ubg.Model.pp model;
  Format.printf "          t = %.2f, built in %.2f s@." params.Topo.Params.t
    (Dynamic.Engine.last_rebuild_seconds engine);

  (* 2. Generate a birth-death + random-waypoint trace: 8 epochs of at
     most 6 events each. *)
  let trace =
    Ubg.Churn.generate ~seed:7 ~epochs:8 ~batch_max:6
      (Ubg.Churn.default_dynamics ~side)
      model
  in
  Format.printf "trace   : %d epochs, %d events@." (Array.length trace.batches)
    (Ubg.Churn.n_events trace);

  (* 3. Replay it. Every epoch is repaired locally (dirty region only)
     and re-certified against the live α-UBG. *)
  Format.printf "@.%6s %4s %6s %7s %6s %9s %8s@." "epoch" "ev" "alive" "dirty%"
    "kind" "repair ms" "stretch";
  Dynamic.Engine.replay engine trace ~f:(fun (r : Dynamic.Engine.report) ->
      let kind =
        match r.kind with
        | Dynamic.Engine.Incremental -> "incr"
        | Dynamic.Engine.Rebuild_threshold -> "rebuild"
        | Dynamic.Engine.Rebuild_cert_failure -> "cert"
        | Dynamic.Engine.Rebuild_backend -> "backend"
      in
      Format.printf "%6d %4d %6d %7.1f %6s %9.1f %8.4f@." r.epoch r.n_events
        r.n_alive
        (100.0 *. r.dirty_fraction)
        kind
        (1e3 *. r.repair_seconds)
        r.stretch);

  let incr, rebuilds, cert_failures = Dynamic.Engine.counters engine in
  Format.printf "@.%d incremental epochs, %d rebuilds, %d cert failures@." incr
    rebuilds cert_failures;

  (* 4. The latest snapshot names the nodes whose spanner edges the
     last batch changed: the region a consumer such as the distance
     oracle repairs from. *)
  let snap = Dynamic.Engine.latest engine in
  Format.printf "last epoch: %d nodes with changed spanner edges@."
    (Array.length snap.Dynamic.Engine.snap_dirty)
