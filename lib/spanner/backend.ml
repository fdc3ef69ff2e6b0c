type capabilities = {
  incremental : bool;
  localized : bool;
  metric_aware : bool;
  subgraph : bool;
}

type result = {
  backend : string;
  spanner : Graph.Wgraph.t;
  advertised_stretch : float option;
  phases : Topo.Relaxed_greedy.phase_stats list;
  rounds : int;
  messages : int;
  build_seconds : float;
}

module type S = sig
  val name : string
  val description : string
  val capabilities : capabilities

  val build :
    ?metric:Geometry.Metric.t -> params:Topo.Params.t -> Ubg.Model.t -> result
end

type t = (module S)

let name (module B : S) = B.name
let description (module B : S) = B.description
let capabilities (module B : S) = B.capabilities

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let register ((module B : S) as b) = Hashtbl.replace registry B.name b
let find n = Hashtbl.find_opt registry n

let all () =
  Hashtbl.fold (fun _ b acc -> b :: acc) registry []
  |> List.sort (fun a b -> String.compare (name a) (name b))

let names () = List.map name (all ())
let default_name = "relaxed"

let default () =
  let n =
    match Sys.getenv_opt "TOPO_BACKEND" with
    | Some n when String.trim n <> "" -> String.trim n
    | _ -> default_name
  in
  match find n with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "TOPO_BACKEND=%s: unknown backend (known: %s)" n
           (String.concat ", " (names ())))

let build ((module B : S) : t) ?metric ~params model =
  let t0 = Obs.Control.now () in
  (* The backend tag rides as a span argument; Trace args are float
     pairs, so the name goes in the key ("backend=<name>", 1.). *)
  Obs.Trace.span ~cat:"build"
    ~args:(fun () ->
      [
        ("backend=" ^ B.name, 1.0);
        ("n", float_of_int (Ubg.Model.n model));
        ("t", params.Topo.Params.t);
      ])
    "build"
  @@ fun () ->
  let r = B.build ?metric ~params model in
  { r with build_seconds = Obs.Control.now () -. t0 }
