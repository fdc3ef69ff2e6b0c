(* Exporters: Chrome trace-event JSON (loads in Perfetto / chrome://
   tracing) and a flat key/value report. Both read shards at
   quiescence. *)

(* Chrome trace-event format: one complete event ("ph":"X") per span,
   tid = recording domain, timestamps in microseconds relative to the
   earliest span start so the viewer opens at t=0. Durations are
   clamped to >= 0 (a settable clock need not be monotonic). *)
let chrome_json () =
  let events = Trace.events () in
  let t_base =
    List.fold_left
      (fun acc (e : Trace.event) -> Float.min acc e.t0)
      infinity events
  in
  let t_base = if Float.is_finite t_base then t_base else 0.0 in
  let event (e : Trace.event) =
    let args = List.map (fun (k, v) -> (k, Json.Num v)) e.args in
    Json.Obj
      ([
         ("name", Json.Str e.name);
         ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
         ("ph", Json.Str "X"); ("pid", Json.int 0); ("tid", Json.int e.dom);
         ("ts", Json.Num (Float.max 0.0 ((e.t0 -. t_base) *. 1e6)));
         ("dur", Json.Num (Float.max 0.0 ((e.t1 -. e.t0) *. 1e6)));
       ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  Json.render
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ("traceEvents", Json.Arr (List.map event events));
       ])

let write_chrome path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (chrome_json ()))

(* Flat report: span aggregates by (cat, name) — total seconds and call
   count — followed by every registered metric, key-sorted. *)
let kv () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.cat, e.name) in
      let s, n =
        match Hashtbl.find_opt tbl key with Some x -> x | None -> (0.0, 0)
      in
      Hashtbl.replace tbl key (s +. Float.max 0.0 (e.t1 -. e.t0), n + 1))
    (Trace.events ());
  let span_rows =
    Hashtbl.fold
      (fun (cat, name) (s, n) acc ->
        let prefix = Printf.sprintf "span.%s.%s" cat name in
        (prefix ^ ".total_s", s) :: (prefix ^ ".calls", float_of_int n) :: acc)
      tbl []
  in
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (span_rows @ Metrics.kv ())

(* Trace validation: parse the file back and check that within every
   (pid, tid) lane the complete events are strictly nested — each event
   either disjoint from or fully contained in any other. Used by
   `topoctl trace-check` and the trace-smoke make target. *)

type summary = { n_events : int; n_lanes : int; max_depth : int }

let validate json =
  let ( let* ) = Result.bind in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.Arr l) -> Ok l
    | Some _ -> Error "traceEvents is not an array"
    | None -> Error "missing traceEvents"
  in
  let* rows =
    List.fold_left
      (fun acc ev ->
        let* acc = acc in
        let num k =
          match Json.member k ev with
          | Some (Json.Num f) -> Ok f
          | _ -> Error (Printf.sprintf "event missing numeric %S" k)
        in
        let* _ =
          match Json.member "name" ev with
          | Some (Json.Str _) -> Ok ()
          | _ -> Error "event missing name"
        in
        let* ts = num "ts" in
        let* dur = num "dur" in
        let* pid = num "pid" in
        let* tid = num "tid" in
        if dur < 0.0 then Error "negative dur"
        else Ok (((pid, tid), ts, dur) :: acc))
      (Ok []) events
  in
  (* Group by lane, sort by (start asc, duration desc) so an enclosing
     span precedes the spans it contains, then sweep with a stack of
     end-times. *)
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun (lane, ts, dur) ->
      let l = try Hashtbl.find lanes lane with Not_found -> [] in
      Hashtbl.replace lanes lane ((ts, dur) :: l))
    rows;
  let max_depth = ref 0 in
  let* () =
    Hashtbl.fold
      (fun _lane evs acc ->
        let* () = acc in
        let evs =
          List.sort
            (fun (t0, d0) (t1, d1) ->
              if t0 <> t1 then compare t0 t1 else compare d1 d0)
            evs
        in
        let rec sweep stack = function
          | [] -> Ok ()
          | (ts, dur) :: rest ->
              let stack =
                List.filter (fun t_end -> ts < t_end) stack
              in
              let t_end = ts +. dur in
              if List.exists (fun enc -> t_end > enc) stack then
                Error
                  (Printf.sprintf
                     "span at ts=%g dur=%g overlaps an enclosing span" ts dur)
              else begin
                let depth = 1 + List.length stack in
                if depth > !max_depth then max_depth := depth;
                sweep (t_end :: stack) rest
              end
        in
        sweep [] evs)
      lanes (Ok ())
  in
  Ok
    {
      n_events = List.length rows;
      n_lanes = Hashtbl.length lanes;
      max_depth = !max_depth;
    }

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src -> (
      match Json.parse src with
      | Error msg -> Error ("invalid JSON: " ^ msg)
      | Ok json -> validate json)
