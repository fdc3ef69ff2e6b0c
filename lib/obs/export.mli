(** Trace and metric exporters.

    Two formats: Chrome trace-event JSON (loadable in Perfetto or
    chrome://tracing) for the recorded spans, and a flat key/value
    report combining span aggregates with the metrics registry. Both
    read shards and must run at quiescence. *)

(** [chrome_json ()] renders the recorded spans as a Chrome trace-event
    document: one complete ("ph":"X") event per span, [tid] the
    recording domain, timestamps in microseconds relative to the
    earliest span start, durations clamped to be non-negative. *)
val chrome_json : unit -> string

val write_chrome : string -> unit

(** [kv ()] is a key-sorted flat report: [span.<cat>.<name>.total_s] /
    [.calls] aggregates over the recorded spans, plus {!Metrics.kv}. *)
val kv : unit -> (string * float) list

type summary = { n_events : int; n_lanes : int; max_depth : int }

(** [validate_file path] parses a Chrome trace file and checks every
    (pid, tid) lane for strict nesting: each complete event must be
    disjoint from or fully contained in any other. Returns a short
    summary, or a description of the first violation. *)
val validate_file : string -> (summary, string) result
