(** Minimal JSON emitter and parser for machine-readable artifacts.

    Just enough JSON to write [BENCH_engine.json] (see DESIGN.md
    section 5) and to round-trip chaos fault-plan artifacts (DESIGN.md
    section 8) without adding a dependency: objects, arrays, numbers,
    strings, booleans, null. Non-finite floats are emitted as [null]
    so the output always parses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val write_file : string -> t -> unit
(** Serialize with a trailing newline to [path ^ ".tmp"], then rename
    that over [path], so a reader or a killed writer never leaves a
    half-written file behind. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (integers without [.]/[e] come back as [Int],
    other numbers as [Float]; string escapes are limited to the ones
    {!to_string} emits plus [\u00XX]). Trailing whitespace is allowed,
    trailing garbage is an error. *)

val read_file : string -> (t, string) result

val update_file :
  string -> key:string -> (t option -> t) -> (unit, string) result
(** [update_file path ~key f] sets [key] of the object stored in [path]
    to [f old], where [old] is the key's current value ([None] when
    absent; a new key goes last), and writes the object back with
    {!write_file}. Every other key keeps its parsed value and place. A
    missing file starts as the empty object. A file that does not
    parse, or whose top level is not an object, is [Error] naming the
    file and the parse error, and nothing is written. *)

(** {1 Accessors} — shallow, for decoding parsed artifacts. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
