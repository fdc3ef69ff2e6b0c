(** Minimal JSON values: a writer and a strict RFC 8259 parser.

    Every JSON document the project emits — Chrome traces, backend
    comparisons, the bench records — is built as a {!t} and printed by
    {!render}; the trace validator and the benches read documents back
    with {!parse}. No JSON dependency is pulled into the image. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [int n] is [Num (float_of_int n)]. *)
val int : int -> t

(** [render v] is [v] as a JSON document ending in a newline. Floats
    print in the shortest form that parses back to the same value, and
    non-finite floats print as [null]. Strings are byte strings: quotes,
    backslashes and control characters are escaped, every other byte is
    written as is. A container whose members are all scalars prints on
    one line; any other container puts each member on its own line,
    indented by two. [parse (render v) = Ok v] whenever [v] holds only
    finite floats. *)
val render : t -> string

(** [parse src] parses a complete JSON document; trailing non-whitespace
    is an error. Numbers follow the RFC 8259 grammar, a [\u] escape takes
    exactly four hex digits, surrogate pairs decode to one UTF-8 code
    point, and lone surrogates and raw control characters in strings
    are errors. *)
val parse : string -> (t, string) result

(** [member k v] is field [k] of object [v], if any. *)
val member : string -> t -> t option
