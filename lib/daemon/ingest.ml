module Io = Ubg.Io
module Churn = Ubg.Churn

module Tail = struct
  (* A line-buffered incremental reader over a regular file that may
     still be growing. [read] returning 0 means "no more bytes right
     now", not end of stream — the producer appends and we poll again.
     Only '\n'-terminated lines ever leave [partial], so a half-flushed
     line is invisible until completed. *)
  type buffer = {
    fd : Unix.file_descr;
    chunk : bytes;
    partial : Buffer.t;
    lines : string Queue.t;
  }

  (* Raised by the line source when no complete line is buffered: the
     producer has not written it yet. *)
  exception Dry

  type t = {
    buf : buffer;
    r : Io.reader;
    initial : Ubg.Model.t;
    advertised : int;
    mutable batches_read : int;
    mutable events_read : int;
    (* Partially ingested batch: [want] events still missing ([-1] when
       no batch header is pending), collected ones in [acc] (reversed).
       Survives across polls. *)
    mutable want : int;
    mutable acc : Churn.event list;
  }

  let refill b =
    let continue = ref true in
    while !continue do
      let k = Unix.read b.fd b.chunk 0 (Bytes.length b.chunk) in
      if k = 0 then continue := false
      else
        for i = 0 to k - 1 do
          let c = Bytes.get b.chunk i in
          if c = '\n' then begin
            Queue.add (Buffer.contents b.partial) b.lines;
            Buffer.clear b.partial
          end
          else Buffer.add_char b.partial c
        done
    done

  let next_line b () =
    match Queue.take_opt b.lines with Some _ as l -> l | None -> raise Dry

  let open_ ?(wait_prefix = 0.0) path =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let buf =
      {
        fd;
        chunk = Bytes.create 65536;
        partial = Buffer.create 256;
        lines = Queue.create ();
      }
    in
    let deadline = Unix.gettimeofday () +. wait_prefix in
    (* Consumed lines are gone, so a retry reads again from offset 0. *)
    let rec attempt () =
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      Buffer.clear buf.partial;
      Queue.clear buf.lines;
      refill buf;
      let r = Io.reader ~name:path (next_line buf) in
      match Io.read_trace_prefix r with
      | initial, advertised ->
          {
            buf;
            r;
            initial;
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

  let initial t = t.initial
  let advertised_batches t = t.advertised
  let batches_read t = t.batches_read
  let events_read t = t.events_read

  let poll t =
    refill t.buf;
    let dim = Ubg.Model.dim t.initial in
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

  let close t = Unix.close t.buf.fd
end
