module Io = Ubg.Io
module Churn = Ubg.Churn

module Tail = struct
  (* Raised by the byte source when the file holds no more bytes yet:
     the producer has not written them. *)
  exception Dry

  type t = {
    fd : Unix.file_descr;
    r : Io.reader;
    initial : Ubg.Model.t option;  (* [None] when opened to resume *)
    shape : Io.shape;
    advertised : int;
    mutable batches_read : int;
    mutable events_read : int;
    (* Partially ingested batch: [want] events still missing ([-1] when
       no batch header is pending), collected ones in [acc] (reversed).
       Survives across polls. *)
    mutable want : int;
    mutable acc : Churn.event list;
  }

  (* The bytes of a regular file that may still be growing. [read]
     returning 0 means "no more bytes right now", not end of stream —
     the producer appends and we poll again. The reader holds a line
     back until its '\n' arrives, so a half-flushed line is invisible
     until completed. *)
  let source fd =
    let chunk = Bytes.create 65536 in
    fun () ->
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> raise Dry
      | k -> Some (Bytes.sub_string chunk 0 k)

  (* [read_prefix r] is [(initial, shape, batches)]. *)
  let open_with ~read_prefix ?(wait_prefix = 0.0) path =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let deadline = Unix.gettimeofday () +. wait_prefix in
    (* Consumed lines are gone, so a retry reads again from offset 0. *)
    let rec attempt () =
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let r = Io.reader ~name:path (source fd) in
      match read_prefix r with
      | initial, shape, advertised ->
          {
            fd;
            r;
            initial;
            shape;
            advertised;
            batches_read = 0;
            events_read = 0;
            want = -1;
            acc = [];
          }
      | exception Dry ->
          if Unix.gettimeofday () >= deadline then
            Io.fail r "incomplete prefix";
          Unix.sleepf 0.01;
          attempt ()
    in
    match attempt () with
    | t -> t
    | exception e ->
        Unix.close fd;
        raise e

  let open_ =
    open_with ~read_prefix:(fun r ->
        let initial, advertised = Io.read_trace_prefix r in
        (Some initial, Io.shape_of_model initial, advertised))

  let open_checked =
    open_with ~read_prefix:(fun r ->
        let shape, advertised = Io.check_trace_prefix r in
        (None, shape, advertised))

  let initial t =
    match t.initial with
    | Some m -> m
    | None ->
        invalid_arg "Tail.initial: a tail opened to resume keeps no instance"

  let shape t = t.shape
  let advertised_batches t = t.advertised
  let batches_read t = t.batches_read
  let events_read t = t.events_read

  let poll t =
    let dim = t.shape.Io.dim in
    match
      if t.want < 0 then begin
        t.want <- Io.read_batch_header t.r;
        t.acc <- []
      end;
      while t.want > 0 do
        t.acc <- Io.read_event t.r ~dim :: t.acc;
        t.want <- t.want - 1
      done
    with
    | () ->
        let batch = Array.of_list (List.rev t.acc) in
        t.want <- -1;
        t.acc <- [];
        t.batches_read <- t.batches_read + 1;
        t.events_read <- t.events_read + Array.length batch;
        Some batch
    | exception Dry -> None

  let skip ?(wait = 10.0) t n =
    let deadline = Unix.gettimeofday () +. wait in
    let remaining = ref n in
    while !remaining > 0 do
      match poll t with
      | Some _ -> decr remaining
      | None ->
          if Unix.gettimeofday () >= deadline then
            Io.fail t.r "resume skip: tail ended %d batches early" !remaining;
          Unix.sleepf 0.01
    done

  let close t = Unix.close t.fd
end
