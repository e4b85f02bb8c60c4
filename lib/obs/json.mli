(** Minimal JSON document builder, serializer and parser.

    The observability exporters (Chrome trace events, run reports, flight
    records) emit JSON, and the flight-record analyzer ({!Analyze}) reads
    back the JSON-lines dumps they produce; a tiny value type with a
    writer and a recursive-descent reader keep the repository free of
    external JSON dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** non-finite floats serialize as [null] (JSON has no NaN/infinity);
          finite ones as [%.12g] when that reads back exactly, [%.17g]
          otherwise, so every finite float round-trips *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. *)

val to_channel : out_channel -> t -> unit

exception Parse_error of string
(** Byte offset and cause of a rejected input. *)

val of_string : string -> t
(** Parse one JSON document (the whole input, surrounding whitespace
    allowed).  Numbers parse to [Int] when they are integral and fit,
    [Float] otherwise; [\u] escapes decode to UTF-8.  Raises
    {!Parse_error} on malformed input.  Round-trips everything this
    repository emits ([to_string] output included). *)

val of_string_opt : string -> t option
