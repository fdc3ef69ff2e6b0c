(* Bench records and gates.

   A gated experiment writes its record as BENCH_<name>.json, or as
   BENCH_<name>.quick.json in quick mode so a smoke run never replaces
   a committed full-size record, and reports each check as a named
   gate. Gates are always on: the harness runs every selected
   experiment, then names each failed gate on stderr and exits 2. *)

let quick = ref false

let path name =
  Printf.sprintf "BENCH_%s%s.json" name (if !quick then ".quick" else "")

let write name json =
  let file = path name in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Obs.Json.render json));
  Printf.printf "   [wrote %s]\n" file

(* The current record [name], if one exists. *)
let read name =
  let file = path name in
  if not (Sys.file_exists file) then None
  else
    let src = In_channel.with_open_bin file In_channel.input_all in
    match Obs.Json.parse src with
    | Ok json -> Some json
    | Error e -> failwith (Printf.sprintf "%s: %s" file e)

(* Failed gate names, most recent first. *)
let failed : string list ref = ref []
let gate name pass = if not pass then failed := name :: !failed

let cores = Domain.recommended_domain_count ()

(* Hardware-aware limits: [by_cores tiers] is the value of the first
   [(min_cores, v)] tier the box's core count meets. Tiers run from the
   most cores down and end at 1, where a scaling limit is meaningless
   and the gate either bounds the oversubscription cost or waives. *)
let by_cores tiers = snd (List.find (fun (min, _) -> cores >= min) tiers)
