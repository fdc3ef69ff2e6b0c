(* topoctl — command-line driver for the topology-control library.

   Subcommands:
     generate    draw a random α-UBG instance and save it
     build       run a topology-control algorithm on an instance
     analyze     print quality metrics of a topology (or the raw instance)
     backends    list the registered SPANNER backends
     compare     head-to-head of every registered backend on one instance
     rounds      measure the distributed algorithm's round count
     query       answer distance/route queries from a precomputed oracle
                 (or a running daemon via --connect)
     serve       run the topology daemon: ingest, certify, serve, checkpoint
     ping        round-trip a running daemon
     serve-bench serve oracle queries concurrently with a churn replay
     trace-check validate a recorded Chrome trace file *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* --trace FILE (or TOPO_TRACE=FILE) turns span recording on and writes
   a Chrome trace-event file at exit, whatever the subcommand did. *)
let setup_trace trace =
  match trace with
  | Some path when path <> "" ->
      Obs.Trace.set_enabled true;
      at_exit (fun () ->
          Obs.Export.write_chrome path;
          Logs.app (fun m ->
              m "trace: %d spans written to %s" (Obs.Trace.n_events ()) path))
  | Some _ | None -> ()

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~env:(Cmd.Env.info "TOPO_TRACE")
        ~doc:"Record spans and write a Chrome trace-event file to $(docv).")

let logs_term =
  Term.(
    const (fun level trace ->
        setup_logs level;
        setup_trace trace)
    $ Logs_cli.level () $ trace_arg)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let instance_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INSTANCE" ~doc:"Instance file (see ubg-instance format).")

let eps_arg =
  Arg.(
    value & opt float 0.5
    & info [ "eps" ] ~docv:"EPS" ~doc:"Target stretch is 1 + $(docv).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let out_arg ~doc =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let placement_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform" ] -> Ok `Uniform
    | [ "clusters"; blobs ] -> (
        match int_of_string_opt blobs with
        | Some b when b > 0 -> Ok (`Clusters b)
        | Some _ | None -> Error (`Msg "clusters:<blobs> needs a positive int"))
    | [ "grid" ] -> Ok `Grid
    | _ -> Error (`Msg "expected uniform | clusters:<blobs> | grid")
  in
  let print ppf = function
    | `Uniform -> Format.pp_print_string ppf "uniform"
    | `Clusters b -> Format.fprintf ppf "clusters:%d" b
    | `Grid -> Format.pp_print_string ppf "grid"
  in
  Arg.conv (parse, print)

let gray_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "keep" ] -> Ok Ubg.Gray_zone.Keep_all
    | [ "drop" ] -> Ok Ubg.Gray_zone.Drop_all
    | [ "bernoulli"; p ] -> (
        match float_of_string_opt p with
        | Some p when p >= 0.0 && p <= 1.0 ->
            Ok (Ubg.Gray_zone.Bernoulli { p; seed = 0 })
        | Some _ | None -> Error (`Msg "bernoulli:<p> needs p in [0,1]"))
    | [ "threshold"; x ] -> (
        match float_of_string_opt x with
        | Some x -> Ok (Ubg.Gray_zone.Distance_threshold x)
        | None -> Error (`Msg "threshold:<x> needs a float"))
    | _ -> Error (`Msg "expected keep | drop | bernoulli:<p> | threshold:<x>")
  in
  Arg.conv (parse, Ubg.Gray_zone.pp)

let generate_cmd =
  let run () n dim alpha seed placement gray degree out =
    let side = Ubg.Generator.side_for_expected_degree ~dim ~n ~alpha ~degree in
    let placement =
      match placement with
      | `Uniform -> Ubg.Generator.Uniform { side }
      | `Clusters blobs ->
          Ubg.Generator.Clusters { blobs; spread = side /. 6.0; side }
      | `Grid ->
          Ubg.Generator.Perturbed_grid
            {
              spacing = side /. (float_of_int n ** (1.0 /. float_of_int dim));
              jitter = 0.1;
            }
    in
    let gray =
      match gray with
      | Ubg.Gray_zone.Bernoulli { p; _ } -> Ubg.Gray_zone.Bernoulli { p; seed }
      | g -> g
    in
    let model = Ubg.Generator.connected ~seed ~dim ~n ~alpha ~gray placement in
    let path = Option.value ~default:"instance.ubg" out in
    Ubg.Io.save_instance path model;
    Format.printf "wrote %s: %a@." path Ubg.Model.pp model
  in
  let n = Arg.(value & opt int 300 & info [ "n" ] ~doc:"Number of nodes.") in
  let dim = Arg.(value & opt int 2 & info [ "dim" ] ~doc:"Dimension (>= 2).") in
  let alpha =
    Arg.(value & opt float 0.8 & info [ "alpha" ] ~doc:"α-UBG parameter in (0,1].")
  in
  let placement =
    Arg.(
      value
      & opt placement_conv `Uniform
      & info [ "placement" ] ~doc:"uniform | clusters:<blobs> | grid.")
  in
  let gray =
    Arg.(
      value
      & opt gray_conv Ubg.Gray_zone.Keep_all
      & info [ "gray" ] ~doc:"Gray-zone policy: keep | drop | bernoulli:<p> | threshold:<x>.")
  in
  let degree =
    Arg.(
      value & opt float 10.0
      & info [ "degree" ] ~doc:"Target expected α-neighborhood size.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Draw a random α-UBG instance")
    Term.(
      const run $ logs_term $ n $ dim $ alpha $ seed_arg $ placement $ gray
      $ degree
      $ out_arg ~doc:"Output instance file (default instance.ubg).")

(* ------------------------------------------------------------------ *)
(* build                                                               *)
(* ------------------------------------------------------------------ *)

type algo =
  [ `Relaxed | `Greedy | `Yao | `Theta | `Gabriel | `Rng | `Lmst | `Xtc
  | `Udel | `Bounded_planar | `Ft | `Ft_vertex | `Mst ]

let algo_conv : algo Arg.conv =
  Arg.enum
    [
      ("relaxed", `Relaxed); ("greedy", `Greedy); ("yao", `Yao);
      ("theta", `Theta); ("gabriel", `Gabriel); ("rng", `Rng);
      ("lmst", `Lmst); ("xtc", `Xtc); ("udel", `Udel);
      ("bounded-planar", `Bounded_planar); ("ft", `Ft);
      ("ft-vertex", `Ft_vertex); ("mst", `Mst);
    ]

let build_topology ~algo ~eps ~k ~cones model =
  let base = model.Ubg.Model.graph in
  match algo with
  | `Relaxed -> (Topo.Relaxed_greedy.build_eps ~eps model).Topo.Relaxed_greedy.spanner
  | `Greedy -> Topo.Seq_greedy.spanner base ~t:(1.0 +. eps)
  | `Yao -> Baselines.Cone_graphs.yao model ~cones
  | `Theta -> Baselines.Cone_graphs.theta model ~cones
  | `Gabriel -> Baselines.Proximity_graphs.gabriel model
  | `Rng -> Baselines.Proximity_graphs.rng model
  | `Lmst -> Baselines.Lmst.build model
  | `Xtc -> Baselines.Xtc.build model
  | `Udel -> Baselines.Udel.build model
  | `Bounded_planar -> Baselines.Bounded_planar.build model
  | `Ft -> Topo.Fault_tolerant.spanner base ~t:(1.0 +. eps) ~k
  | `Ft_vertex -> Topo.Fault_tolerant.vertex_spanner base ~t:(1.0 +. eps) ~k
  | `Mst -> Graph.Mst.forest base

let print_summary name ~base g =
  Format.printf "%-10s %a@." name Analysis.Metrics.pp_summary
    (Analysis.Metrics.summarize ~base g)

let build_cmd =
  let run () instance algo eps k cones out svg =
    let model = Ubg.Io.load_instance instance in
    let g =
      match algo with
      | `Relaxed ->
          let r = Topo.Relaxed_greedy.build_eps ~eps model in
          let tot = Topo.Relaxed_greedy.totals r.Topo.Relaxed_greedy.stats in
          Format.printf
            "phases: %d added, %d removed; peak queries/cluster %d, peak \
             inter-degree %d@."
            tot.Topo.Relaxed_greedy.sum_added
            tot.Topo.Relaxed_greedy.sum_removed
            tot.Topo.Relaxed_greedy.peak_queries_per_cluster
            tot.Topo.Relaxed_greedy.peak_inter_degree;
          r.Topo.Relaxed_greedy.spanner
      | _ -> build_topology ~algo ~eps ~k ~cones model
    in
    print_summary "result" ~base:model.Ubg.Model.graph g;
    Option.iter
      (fun path ->
        Ubg.Io.save_topology path g;
        Format.printf "wrote %s@." path)
      out;
    Option.iter
      (fun path ->
        Analysis.Svg.save ~model g path;
        Format.printf "wrote %s@." path)
      svg
  in
  let algo =
    Arg.(
      value & opt algo_conv `Relaxed
      & info [ "algo" ]
          ~doc:
            "relaxed | greedy | yao | theta | gabriel | rng | lmst | xtc | \
             udel | bounded-planar | ft | ft-vertex | mst.")
  in
  let k =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~doc:"Fault budget for --algo ft and --algo ft-vertex.")
  in
  let cones =
    Arg.(value & opt int 8 & info [ "cones" ] ~doc:"Cones for yao/theta.")
  in
  let svg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Render the topology to an SVG file (2-d only).")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Run a topology-control algorithm")
    Term.(
      const run $ logs_term $ instance_arg $ algo $ eps_arg $ k $ cones
      $ out_arg ~doc:"Save the topology to FILE."
      $ svg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run () instance topology histogram =
    let model = Ubg.Io.load_instance instance in
    let base = model.Ubg.Model.graph in
    let g =
      match topology with
      | Some path -> Ubg.Io.load_topology path ~model
      | None -> base
    in
    print_summary
      (match topology with Some p -> Filename.basename p | None -> "instance")
      ~base g;
    if histogram then
      Format.printf "%a" Analysis.Metrics.pp_degree_histogram g
  in
  let histogram =
    Arg.(
      value & flag
      & info [ "histogram" ] ~doc:"Also print the degree distribution.")
  in
  let topology =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"TOPOLOGY" ~doc:"Topology file (defaults to the instance).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print quality metrics")
    Term.(const run $ logs_term $ instance_arg $ topology $ histogram)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let resolve_backend name =
  Spanner.Backends.ensure ();
  match Spanner.Backend.find name with
  | Some b -> b
  | None ->
      failwith
        (Printf.sprintf "unknown backend %s (known: %s)" name
           (String.concat ", " (Spanner.Backend.names ())))

let compare_cmd =
  let run () instance eps backend_names json =
    Spanner.Backends.ensure ();
    let model = Ubg.Io.load_instance instance in
    let params =
      Topo.Params.of_epsilon ~eps ~alpha:model.Ubg.Model.alpha
        ~dim:(Ubg.Model.dim model)
    in
    let backends =
      match backend_names with
      | [] -> Spanner.Backend.all ()
      | names -> List.map resolve_backend names
    in
    print_summary "input" ~base:model.Ubg.Model.graph model.Ubg.Model.graph;
    let rows = Spanner.Compare.run ~backends ~params model in
    Analysis.Report.print
      (Spanner.Compare.table
         ~title:
           (Printf.sprintf "SPANNER backends on %s (t = %.2f)" instance
              params.Topo.Params.t)
         rows);
    Spanner.Compare.set_gauges rows;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc
          (Obs.Json.render (Spanner.Compare.to_json ~params ~model rows));
        close_out oc;
        Format.printf "wrote %s@." path)
      json
  in
  let backends =
    Arg.(
      value
      & opt (list string) []
      & info [ "backends" ] ~docv:"NAMES"
          ~doc:"Comma-separated registry names (default: every backend).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the comparison as a JSON document to $(docv).")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Head-to-head of the registered SPANNER backends on one instance")
    Term.(const run $ logs_term $ instance_arg $ eps_arg $ backends $ json)

(* ------------------------------------------------------------------ *)
(* backends                                                            *)
(* ------------------------------------------------------------------ *)

let backends_cmd =
  let run () =
    Spanner.Backends.ensure ();
    List.iter
      (fun b ->
        let c = Spanner.Backend.capabilities b in
        Format.printf "%-11s %c%c%c%c  %s@." (Spanner.Backend.name b)
          (if c.Spanner.Backend.incremental then 'I' else '-')
          (if c.Spanner.Backend.localized then 'L' else '-')
          (if c.Spanner.Backend.metric_aware then 'M' else '-')
          (if c.Spanner.Backend.subgraph then 'S' else '-')
          (Spanner.Backend.description b))
      (Spanner.Backend.all ())
  in
  Cmd.v
    (Cmd.info "backends"
       ~doc:
         "List the registered SPANNER backends (flags: I incremental, L \
          localized, M metric-aware, S subgraph)")
    Term.(const run $ logs_term)

(* ------------------------------------------------------------------ *)
(* rounds                                                              *)
(* ------------------------------------------------------------------ *)

let rounds_cmd =
  let run () instance eps seed =
    let model = Ubg.Io.load_instance instance in
    let r = Distrib.Dist_greedy.build_eps ~seed ~eps model in
    let n = Ubg.Model.n model in
    let reference =
      log (float_of_int n) /. log 2.0
      *. float_of_int (Distrib.Dist_greedy.log_star (float_of_int n))
    in
    Format.printf "n = %d: %d rounds total (log n * log* n = %.1f, ratio %.1f)@."
      n r.Distrib.Dist_greedy.rounds reference
      (float_of_int r.Distrib.Dist_greedy.rounds /. reference);
    let gathers, cover_mis, red_mis =
      List.fold_left
        (fun (g, c, rd) (tr : Distrib.Dist_greedy.phase_trace) ->
          ( g + tr.gather_rounds,
            c + tr.cover_mis_rounds,
            rd + tr.redundant_mis_rounds ))
        (0, 0, 0) r.Distrib.Dist_greedy.traces
    in
    Format.printf
      "breakdown: %d gather rounds, %d cover-MIS rounds, %d redundancy-MIS rounds over %d phases@."
      gathers cover_mis red_mis
      (List.length r.Distrib.Dist_greedy.traces);
    let stretch =
      Topo.Verify.edge_stretch ~base:model.Ubg.Model.graph
        ~spanner:r.Distrib.Dist_greedy.spanner
    in
    Format.printf "output stretch %.4f (target %.2f)@." stretch (1.0 +. eps)
  in
  Cmd.v
    (Cmd.info "rounds" ~doc:"Measure the distributed algorithm's rounds")
    Term.(const run $ logs_term $ instance_arg $ eps_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* route                                                               *)
(* ------------------------------------------------------------------ *)

let route_cmd =
  let run () instance algo eps pairs seed protocol =
    let model = Ubg.Io.load_instance instance in
    let topology = build_topology ~algo ~eps ~k:1 ~cones:8 model in
    let plane =
      Ubg.Model.dim model = 2
      && Analysis.Planarity.is_plane ~points:model.Ubg.Model.points topology
    in
    let stats =
      match protocol with
      | `Greedy -> Baselines.Routing.trial ~seed ~model ~topology ~pairs
      | `Gfg | `Face ->
          if not plane then
            failwith "face protocols need a plane 2-d topology (try --algo gabriel)";
          let route =
            match protocol with
            | `Gfg -> Baselines.Planar_routing.gfg
            | `Face | `Greedy -> Baselines.Planar_routing.face_route
          in
          Baselines.Planar_routing.trial ~seed ~model ~topology ~pairs ~route
    in
    Format.printf
      "topology: %d edges, plane = %b@.delivery %.1f%% over %d packets, avg \
       stretch %.3f, max stretch %.3f@."
      (Graph.Wgraph.n_edges topology) plane
      (100.0 *. stats.Baselines.Routing.delivery_rate)
      pairs stats.Baselines.Routing.avg_stretch
      stats.Baselines.Routing.max_stretch
  in
  let algo =
    Arg.(
      value & opt algo_conv `Gabriel
      & info [ "algo" ] ~doc:"Topology to route over.")
  in
  let pairs =
    Arg.(value & opt int 200 & info [ "pairs" ] ~doc:"Number of packets.")
  in
  let protocol =
    Arg.(
      value
      & opt (enum [ ("greedy", `Greedy); ("gfg", `Gfg); ("face", `Face) ]) `Gfg
      & info [ "protocol" ] ~doc:"greedy | gfg | face.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Simulate geographic routing over a topology")
    Term.(
      const run $ logs_term $ instance_arg $ algo $ eps_arg $ pairs $ seed_arg
      $ protocol)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let run () instance eps seed full =
    let model = Ubg.Io.load_instance instance in
    if full then begin
      let r = Distrib.Dist_protocol.build_eps ~seed ~eps model in
      let table =
        Analysis.Report.create
          ~title:"all-protocol execution (every gather a real flood)"
          ~columns:[ "phase"; "rounds"; "messages"; "added"; "removed" ]
      in
      List.iter
        (fun (p : Distrib.Dist_protocol.phase_report) ->
          if p.rounds > 0 || p.n_added > 0 then
            Analysis.Report.add_row table
              [
                Analysis.Report.cell_i p.phase;
                Analysis.Report.cell_i p.rounds;
                Analysis.Report.cell_i p.messages;
                Analysis.Report.cell_i p.n_added;
                Analysis.Report.cell_i p.n_removed;
              ])
        r.Distrib.Dist_protocol.reports;
      Analysis.Report.print table;
      Format.printf "total: %d rounds, %d messages, %d spanner edges@."
        r.Distrib.Dist_protocol.rounds r.Distrib.Dist_protocol.messages
        (Graph.Wgraph.n_edges r.Distrib.Dist_protocol.spanner)
    end
    else begin
      let r = Distrib.Dist_greedy.build_eps ~seed ~eps model in
      let table =
        Analysis.Report.create
          ~title:"charged-gather execution (MIS simulated, gathers charged)"
          ~columns:
            [ "phase"; "gather"; "cover MIS"; "redund. MIS"; "added"; "removed" ]
      in
      List.iter
        (fun (p : Distrib.Dist_greedy.phase_trace) ->
          if p.n_added > 0 || p.n_removed > 0 then
            Analysis.Report.add_row table
              [
                Analysis.Report.cell_i p.phase;
                Analysis.Report.cell_i p.gather_rounds;
                Analysis.Report.cell_i p.cover_mis_rounds;
                Analysis.Report.cell_i p.redundant_mis_rounds;
                Analysis.Report.cell_i p.n_added;
                Analysis.Report.cell_i p.n_removed;
              ])
        r.Distrib.Dist_greedy.traces;
      Analysis.Report.print table;
      Format.printf
        "total: %d rounds over %d phases (quiet phases omitted above), %d \
         spanner edges@."
        r.Distrib.Dist_greedy.rounds
        (List.length r.Distrib.Dist_greedy.traces)
        (Graph.Wgraph.n_edges r.Distrib.Dist_greedy.spanner)
    end
  in
  let full =
    Arg.(
      value & flag
      & info [ "full-protocol" ]
          ~doc:"Use the all-protocol engine (real floods; slower).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Trace the distributed execution phase by phase")
    Term.(const run $ logs_term $ instance_arg $ eps_arg $ seed_arg $ full)

(* ------------------------------------------------------------------ *)
(* churn                                                               *)
(* ------------------------------------------------------------------ *)

let churn_cmd =
  let run () trace_path record n dim alpha degree seed epochs batch_max speed
      eps gray threshold check_rebuild backend_name =
    if record then begin
      let side =
        Ubg.Generator.side_for_expected_degree ~dim ~n ~alpha ~degree
      in
      let model =
        Ubg.Generator.connected ~seed ~dim ~n ~alpha ~gray
          (Ubg.Generator.Uniform { side })
      in
      let dyn = { (Ubg.Churn.default_dynamics ~side) with speed } in
      let trace =
        Ubg.Churn.generate ~seed:(seed + 1) ~epochs ~batch_max dyn model
      in
      Ubg.Io.save_trace trace_path trace;
      Format.printf "wrote %s: %a, %d epochs, %d events@." trace_path
        Ubg.Model.pp model epochs
        (Ubg.Churn.n_events trace)
    end
    else begin
      let trace = Ubg.Io.load_trace trace_path in
      let model = trace.Ubg.Churn.initial in
      let params =
        Topo.Params.of_epsilon ~eps ~alpha:model.Ubg.Model.alpha
          ~dim:(Ubg.Model.dim model)
      in
      let backend =
        match backend_name with
        | Some name -> Some (resolve_backend name)
        | None -> (
            (* honor the registry's TOPO_BACKEND override, but leave
               the engine on its historic path when unset *)
            match Sys.getenv_opt "TOPO_BACKEND" with
            | Some _ ->
                Spanner.Backends.ensure ();
                Some (Spanner.Backend.default ())
            | None -> None)
      in
      let engine =
        Dynamic.Engine.create ?backend ~gray ~rebuild_threshold:threshold
          ~params model
      in
      Format.printf
        "initial: n = %d, t = %.3f, %d spanner edges, full build %.1f ms@."
        (Ubg.Model.n model) params.Topo.Params.t
        (Graph.Wgraph.n_edges (Dynamic.Engine.spanner engine))
        (1e3 *. Dynamic.Engine.last_rebuild_seconds engine);
      let table =
        Analysis.Report.create
          ~title:
            (Printf.sprintf "churn replay of %s (rebuild column is %s)"
               trace_path
               (if check_rebuild then "measured per epoch"
                else "the engine's last-rebuild estimate"))
          ~columns:
            [
              "epoch"; "ev"; "alive"; "dirty"; "dirty%"; "kind"; "repair ms";
              "rebuild ms"; "speedup"; "stretch"; "maxdeg"; "w/MST";
            ]
      in
      let sum_repair = ref 0.0 and sum_rebuild = ref 0.0 in
      Dynamic.Engine.replay engine trace ~f:(fun r ->
          let rebuild_s =
            if check_rebuild then begin
              let fresh_model, _ = Dynamic.Engine.current_model engine in
              let t0 = Unix.gettimeofday () in
              ignore (Topo.Relaxed_greedy.build ~params fresh_model);
              Unix.gettimeofday () -. t0
            end
            else Dynamic.Engine.last_rebuild_seconds engine
          in
          sum_repair := !sum_repair +. r.Dynamic.Engine.repair_seconds;
          sum_rebuild := !sum_rebuild +. rebuild_s;
          Analysis.Report.add_row table
            [
              Analysis.Report.cell_i r.Dynamic.Engine.epoch;
              Analysis.Report.cell_i r.Dynamic.Engine.n_events;
              Analysis.Report.cell_i r.Dynamic.Engine.n_alive;
              Analysis.Report.cell_i r.Dynamic.Engine.n_dirty;
              Analysis.Report.cell_f
                (100.0 *. r.Dynamic.Engine.dirty_fraction);
              (match r.Dynamic.Engine.kind with
              | Dynamic.Engine.Incremental -> "incr"
              | Dynamic.Engine.Rebuild_threshold -> "rebuild"
              | Dynamic.Engine.Rebuild_cert_failure -> "cert-fail"
              | Dynamic.Engine.Rebuild_backend -> "backend");
              Analysis.Report.cell_f
                (1e3 *. r.Dynamic.Engine.repair_seconds);
              Analysis.Report.cell_f (1e3 *. rebuild_s);
              Analysis.Report.cell_f
                (rebuild_s /. Float.max 1e-9 r.Dynamic.Engine.repair_seconds);
              Analysis.Report.cell_f r.Dynamic.Engine.stretch;
              Analysis.Report.cell_i r.Dynamic.Engine.max_degree;
              Analysis.Report.cell_f
                (Dynamic.Engine.weight_ratio (Dynamic.Engine.latest engine));
            ]);
      Analysis.Report.print table;
      let incr, rebuilds, cert_failures = Dynamic.Engine.counters engine in
      Format.printf
        "epochs: %d incremental, %d full rebuilds, %d certification \
         failures@.totals: repair %.1f ms vs rebuild %.1f ms (%.1fx)@."
        incr rebuilds cert_failures (1e3 *. !sum_repair)
        (1e3 *. !sum_rebuild)
        (!sum_rebuild /. Float.max 1e-9 !sum_repair)
    end
  in
  let trace_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"Churn trace file (ubg-churn format); written by --record.")
  in
  let record =
    Arg.(
      value & flag
      & info [ "record" ]
          ~doc:"Generate an instance and churn trace and save it to TRACE.")
  in
  let n = Arg.(value & opt int 300 & info [ "n" ] ~doc:"Nodes (--record).") in
  let dim = Arg.(value & opt int 2 & info [ "dim" ] ~doc:"Dimension (--record).") in
  let alpha =
    Arg.(value & opt float 0.8 & info [ "alpha" ] ~doc:"α (--record).")
  in
  let degree =
    Arg.(
      value & opt float 10.0
      & info [ "degree" ] ~doc:"Expected α-neighborhood size (--record).")
  in
  let epochs =
    Arg.(value & opt int 10 & info [ "epochs" ] ~doc:"Batches (--record).")
  in
  let batch_max =
    Arg.(
      value & opt int 8
      & info [ "batch-max" ] ~doc:"Max events per batch (--record).")
  in
  let speed =
    Arg.(
      value & opt float 0.25
      & info [ "speed" ] ~doc:"Random-waypoint step length (--record).")
  in
  let gray =
    Arg.(
      value
      & opt gray_conv Ubg.Gray_zone.Keep_all
      & info [ "gray" ]
          ~doc:"Gray-zone policy for generation and link re-probing.")
  in
  let threshold =
    Arg.(
      value & opt float 0.3
      & info [ "rebuild-threshold" ]
          ~doc:"Dirty fraction above which an epoch falls back to a rebuild.")
  in
  let check_rebuild =
    Arg.(
      value & flag
      & info [ "check-rebuild" ]
          ~doc:
            "Measure a real from-scratch rebuild every epoch instead of \
             reusing the engine's estimate (slower).")
  in
  let backend =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ] ~docv:"NAME"
          ~doc:
            "SPANNER backend for (re)builds (see $(b,topoctl backends)); a \
             non-incremental backend rebuilds every epoch. Default: the \
             engine's own relaxed-greedy path, or \\$TOPO_BACKEND when set.")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Replay (or record) a churn trace through the incremental engine")
    Term.(
      const run $ logs_term $ trace_arg $ record $ n $ dim $ alpha $ degree
      $ seed_arg $ epochs $ batch_max $ speed $ eps_arg $ gray $ threshold
      $ check_rebuild $ backend)

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let oracle_eps_arg =
  Arg.(
    value & opt float 0.5
    & info [ "oracle-eps" ] ~docv:"EPS"
        ~doc:
          "Oracle slack: answers read off the oracle's tables are within \
           1 + $(docv) of the exact topology distance; every other answer \
           is exact.")

let load_pairs file =
  let ic = open_in file in
  let pairs = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match
           String.split_on_char ' ' line
           |> List.filter (fun s -> s <> "")
           |> List.map int_of_string_opt
         with
         | [ Some u; Some v ] -> pairs := (u, v) :: !pairs
         | _ -> failwith (Printf.sprintf "%s: bad pair line %S" file line)
     done
   with End_of_file -> ());
  close_in ic;
  Array.of_list (List.rev !pairs)

(* In --connect mode the positional arguments shift: there is no
   INSTANCE, so SRC and DST are positions 0 and 1 and every answer
   comes from the daemon's published oracle over the wire. *)
let connect_query ~sock ~pos0 ~pos1 ~batch ~show_path =
  let c = Daemon.Client.connect sock in
  Fun.protect
    ~finally:(fun () -> Daemon.Client.close c)
    (fun () ->
      match batch with
      | Some file ->
          let pairs = load_pairs file in
          let t0 = Unix.gettimeofday () in
          let last_epoch = ref (-1) in
          Array.iter
            (fun (u, v) ->
              let ep, d = Daemon.Client.dist c u v in
              if ep <> !last_epoch then begin
                last_epoch := ep;
                Format.printf "# epoch %d@." ep
              end;
              Format.printf "%d %d %.17g@." u v d)
            pairs;
          let dt = Unix.gettimeofday () -. t0 in
          let m = Array.length pairs in
          Format.printf "# %d queries in %.3f ms (%.3g queries/s)@." m
            (1e3 *. dt)
            (float_of_int m /. Float.max 1e-9 dt)
      | None ->
          let need what = function
            | Some x -> x
            | None ->
                failwith
                  ("query --connect: need SRC DST positions or --batch FILE \
                    (missing " ^ what ^ ")")
          in
          let src =
            match int_of_string_opt (need "SRC" pos0) with
            | Some s -> s
            | None -> failwith "query --connect: SRC must be a vertex id"
          in
          let dst : int = need "DST" pos1 in
          let ep, d = Daemon.Client.dist c src dst in
          Format.printf "estimate %d -> %d: %.17g (epoch %d)@." src dst d ep;
          if show_path then begin
            match Daemon.Client.path c src dst with
            | _, None -> Format.printf "route: unreachable@."
            | ep, Some path ->
                Format.printf "route (%d hops, epoch %d):"
                  (Array.length path - 1)
                  ep;
                Array.iter (fun v -> Format.printf " %d" v) path;
                Format.printf "@."
          end)

let local_query ~instance ~algo ~eps ~oeps ~src ~dst ~batch ~show_path =
    let model = Ubg.Io.load_instance instance in
    let topology = build_topology ~algo ~eps ~k:1 ~cones:8 model in
    let csr = Graph.Csr.of_wgraph topology in
    let service = Oracle.Service.of_csr ~eps:oeps ~label:"query" csr in
    let entry = Oracle.Service.current service in
    let oracle = entry.Oracle.Service.oracle in
    let st = Oracle.Dist.stats oracle in
    Format.printf
      "oracle: %d clusters over n = %d, m = %d; radius %.4g, near bound \
       %.4g, %d table words, built in %.1f ms@."
      st.Oracle.Dist.n_clusters st.Oracle.Dist.n st.Oracle.Dist.n_edges
      st.Oracle.Dist.radius st.Oracle.Dist.near_bound
      st.Oracle.Dist.table_words
      (1e3 *. st.Oracle.Dist.build_seconds);
    match batch with
    | Some file ->
        let pairs = load_pairs file in
        let m = Array.length pairs in
        let u = Array.map fst pairs and v = Array.map snd pairs in
        let out = Array.make m 0.0 in
        let t0 = Unix.gettimeofday () in
        Oracle.Dist.distance_batch_into oracle ~u ~v ~out;
        let dt = Unix.gettimeofday () -. t0 in
        Array.iteri
          (fun i d -> Format.printf "%d %d %.17g@." u.(i) v.(i) d)
          out;
        Format.printf "# %d queries in %.3f ms (%.3g queries/s)@." m
          (1e3 *. dt)
          (float_of_int m /. Float.max 1e-9 dt)
    | None ->
        let src =
          match src with
          | Some s -> s
          | None -> failwith "query: need SRC DST positions or --batch FILE"
        in
        let dst =
          match dst with
          | Some d -> d
          | None -> failwith "query: need SRC DST positions or --batch FILE"
        in
        let qws = Oracle.Dist.create_query_ws () in
        let est = Oracle.Dist.distance_estimate oracle qws src dst in
        let exact = Graph.Dijkstra.distance_csr csr src dst in
        Format.printf
          "estimate %d -> %d: %.17g (exact %.17g, ratio %.4f, advertised <= \
           %.4f)@."
          src dst est exact
          (if exact > 0.0 && exact < infinity then est /. exact else 1.0)
          (1.0 +. oeps);
        if show_path then begin
          match Oracle.Dist.spanner_path oracle qws ~src ~dst with
          | None -> Format.printf "route: unreachable@."
          | Some path ->
              Format.printf "route (%d hops):" (Array.length path - 1);
              Array.iter (fun v -> Format.printf " %d" v) path;
              Format.printf "@."
        end

let query_cmd =
  let run () connect pos0 pos1 pos2 algo eps oeps batch show_path =
    match connect with
    | Some sock ->
        (* positions shift down: SRC DST instead of INSTANCE SRC DST *)
        connect_query ~sock ~pos0 ~pos1 ~batch ~show_path
    | None ->
        let instance =
          match pos0 with
          | Some f when Sys.file_exists f -> f
          | Some f -> failwith (Printf.sprintf "query: no such instance %s" f)
          | None -> failwith "query: need an INSTANCE file (or --connect)"
        in
        local_query ~instance ~algo ~eps ~oeps ~src:pos1 ~dst:pos2 ~batch
          ~show_path
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCKET"
          ~doc:
            "Ask a running daemon ($(b,topoctl serve)) over its Unix \
             socket instead of building an oracle locally. Positional \
             arguments become $(i,SRC) $(i,DST).")
  in
  let pos0 =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"INSTANCE"
          ~doc:
            "Instance file (local mode); source vertex (--connect mode).")
  in
  let src =
    Arg.(
      value & pos 1 (some int) None
      & info [] ~docv:"SRC"
          ~doc:
            "Source vertex (local mode); destination vertex (--connect \
             mode).")
  in
  let dst =
    Arg.(
      value & pos 2 (some int) None
      & info [] ~docv:"DST" ~doc:"Destination vertex (local mode).")
  in
  let batch =
    Arg.(
      value
      & opt (some file) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "Answer every \"u v\" pair in $(docv) (one per line, # \
             comments) on the domain pool and print one \"u v d\" line \
             per pair, d with 17 significant digits so it reads back bit \
             for bit.")
  in
  let show_path =
    Arg.(
      value & flag
      & info [ "path" ]
          ~doc:"Also print the oracle's route (single-query mode).")
  in
  let algo =
    Arg.(
      value & opt algo_conv `Relaxed
      & info [ "algo" ] ~doc:"Topology to serve queries over.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer point-to-point distance/route queries from an oracle \
          (local or over a daemon socket)")
    Term.(
      const run $ logs_term $ connect $ pos0 $ src $ dst $ algo $ eps_arg
      $ oracle_eps_arg $ batch $ show_path)

(* ------------------------------------------------------------------ *)
(* serve-bench                                                         *)
(* ------------------------------------------------------------------ *)

let serve_bench_cmd =
  let run () trace_path eps oeps batch seed =
    let trace = Ubg.Io.load_trace trace_path in
    let model = trace.Ubg.Churn.initial in
    let params =
      Topo.Params.of_epsilon ~eps ~alpha:model.Ubg.Model.alpha
        ~dim:(Ubg.Model.dim model)
    in
    let engine = Dynamic.Engine.create ~params model in
    let service =
      Oracle.Service.attach ~eps:oeps ~label:"serve-bench" engine
    in
    (* The replay domain owns the pool (spanner repairs, certification
       and oracle construction — incremental repair per epoch, scratch
       only on fallback — all run there); the main domain serves scalar
       queries lock-free off the RCU cell the whole time. *)
    let done_flag = Atomic.make false in
    let replayer =
      Domain.spawn (fun () ->
          let n = ref 0 in
          Dynamic.Engine.replay engine trace ~f:(fun _ -> incr n);
          Atomic.set done_flag true;
          !n)
    in
    let qws = Oracle.Dist.create_query_ws () in
    let st = Random.State.make [| seed; 0x5e7e |] in
    let queries = ref 0 in
    let epochs_seen = ref 0 in
    let builds_s = ref 0.0 in
    let last_epoch = ref (-1) in
    let checksum = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    while not (Atomic.get done_flag) do
      let entry = Oracle.Service.current service in
      let ep = entry.Oracle.Service.epoch in
      if ep <> !last_epoch then begin
        last_epoch := ep;
        incr epochs_seen;
        builds_s :=
          !builds_s
          +. (Oracle.Dist.stats entry.Oracle.Service.oracle)
               .Oracle.Dist.build_seconds
      end;
      let oracle = entry.Oracle.Service.oracle in
      let n = Graph.Csr.n_vertices entry.Oracle.Service.csr in
      for _ = 1 to batch do
        let u = Random.State.int st n and v = Random.State.int st n in
        let d = Oracle.Dist.distance_estimate oracle qws u v in
        if d < infinity then checksum := !checksum +. d
      done;
      queries := !queries + batch
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let replayed = Domain.join replayer in
    let ost = Oracle.Service.stats service in
    Format.printf
      "served %d queries in %.3f s (%.3g queries/s, checksum %.6g) while \
       replaying %d epochs@.observed %d distinct published epochs; oracle \
       construction totalled %.1f ms (%d repairs, %d scratch builds, %d \
       fallbacks)@."
      !queries dt
      (float_of_int !queries /. Float.max 1e-9 dt)
      !checksum replayed !epochs_seen (1e3 *. !builds_s)
      ost.Oracle.Service.repairs ost.Oracle.Service.scratch_builds
      ost.Oracle.Service.repair_fallbacks
  in
  let trace_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Churn trace (ubg-churn format).")
  in
  let batch =
    Arg.(
      value & opt int 1024
      & info [ "batch" ] ~docv:"N"
          ~doc:"Queries per RCU read of the serving cell.")
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Serve oracle queries concurrently with a churn replay (one \
          writer, lock-free readers)")
    Term.(
      const run $ logs_term $ trace_arg $ eps_arg $ oracle_eps_arg $ batch
      $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run () trace instance socket checkpoint eps oeps period ck_epochs
      ck_seconds backend_name quit_at_tail =
    let source =
      match (trace, instance) with
      | Some t, None -> Daemon.Runtime.Tail t
      | None, Some i -> Daemon.Runtime.Socket_ingest i
      | Some _, Some _ ->
          failwith "serve: TRACE and --instance are mutually exclusive"
      | None, None ->
          failwith "serve: need a TRACE to tail or --instance FILE"
    in
    let backend = Option.map resolve_backend backend_name in
    let config =
      {
        Daemon.Runtime.socket;
        source;
        checkpoint;
        eps;
        oracle_eps = oeps;
        period;
        checkpoint_every_epochs = ck_epochs;
        checkpoint_every_seconds = ck_seconds;
        backend;
        quit_at_tail;
        handle_signals = true;
        tick = 0.05;
      }
    in
    let s = Daemon.Runtime.run config in
    Format.printf
      "daemon stopped at epoch %d: %d epochs, %d events, %d checkpoints, \
       %d requests served@."
      s.Daemon.Runtime.final_epoch s.Daemon.Runtime.epochs_applied
      s.Daemon.Runtime.events_applied s.Daemon.Runtime.checkpoints_written
      s.Daemon.Runtime.requests_served
  in
  let trace =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"Churn trace to tail (ubg-churn format; may still be growing).")
  in
  let instance =
    Arg.(
      value
      & opt (some file) None
      & info [ "instance" ] ~docv:"FILE"
          ~doc:
            "Socket-ingest mode: start from this instance and batch EV \
             frames per clock tick instead of tailing a trace.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint engine state to $(docv) (atomically, via rename) \
             on the cadence below and at shutdown; an existing file is \
             resumed from.")
  in
  let period =
    Arg.(
      value & opt float 0.05
      & info [ "period" ] ~docv:"SECONDS"
          ~doc:"Epoch clock period; 0 applies batches as they arrive.")
  in
  let ck_epochs =
    Arg.(
      value & opt int 25
      & info [ "checkpoint-every-epochs" ] ~docv:"N"
          ~doc:"Checkpoint every $(docv) epochs (0 disables).")
  in
  let ck_seconds =
    Arg.(
      value & opt float 30.0
      & info [ "checkpoint-every-seconds" ] ~docv:"S"
          ~doc:"Checkpoint every $(docv) seconds (0 disables).")
  in
  let backend =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ] ~docv:"NAME"
          ~doc:"Spanner backend for the engine (see $(b,topoctl backends)).")
  in
  let quit_at_tail =
    Arg.(
      value & flag
      & info [ "quit-at-tail" ]
          ~doc:
            "Stop once every advertised batch of the trace is applied \
             (benches and smoke tests).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the topology daemon: ingest churn, advance certified epochs, \
          serve oracle queries, checkpoint state")
    Term.(
      const run $ logs_term $ trace $ instance $ socket_arg $ checkpoint
      $ eps_arg $ oracle_eps_arg $ period $ ck_epochs $ ck_seconds $ backend
      $ quit_at_tail)

(* ------------------------------------------------------------------ *)
(* ping                                                                *)
(* ------------------------------------------------------------------ *)

let ping_cmd =
  let run () socket show_stats =
    let c = Daemon.Client.connect socket in
    Fun.protect
      ~finally:(fun () -> Daemon.Client.close c)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let epoch = Daemon.Client.ping c in
        let dt = Unix.gettimeofday () -. t0 in
        Format.printf "PONG epoch %d (%.2f ms)@." epoch (1e3 *. dt);
        if show_stats then begin
          let _, rows = Daemon.Client.stats c in
          List.iter (fun (k, v) -> Format.printf "%s=%s@." k v) rows
        end)
  in
  let socket =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOCKET" ~doc:"The daemon's Unix-domain socket.")
  in
  let show_stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Also print the daemon's STATS rows.")
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:"Round-trip a running daemon and print its published epoch")
    Term.(const run $ logs_term $ socket $ show_stats)

(* ------------------------------------------------------------------ *)
(* trace-check                                                         *)
(* ------------------------------------------------------------------ *)

let trace_check_cmd =
  let run () path =
    match Obs.Export.validate_file path with
    | Ok s ->
        Format.printf
          "%s: OK — %d events across %d lanes, max nesting depth %d@." path
          s.Obs.Export.n_events s.Obs.Export.n_lanes s.Obs.Export.max_depth
    | Error msg ->
        Format.eprintf "%s: INVALID — %s@." path msg;
        exit 1
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Chrome trace-event JSON file to validate.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a recorded trace: well-formed JSON, strictly nested spans")
    Term.(const run $ logs_term $ path)

let () =
  let doc = "local approximation schemes for topology control (PODC 2006)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "topoctl" ~version:"1.0.0" ~doc)
          [
            generate_cmd; build_cmd; analyze_cmd; backends_cmd; compare_cmd;
            rounds_cmd; route_cmd; simulate_cmd; churn_cmd; query_cmd;
            serve_cmd; ping_cmd; serve_bench_cmd; trace_check_cmd;
          ]))
