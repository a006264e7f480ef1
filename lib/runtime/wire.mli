(** Binary wire primitives for the live runtime's codec.

    A tiny self-contained serialization layer: integers are zigzag
    LEB128 varints (compact for the small non-negative values that
    dominate protocol messages, correct for the occasional [-1]
    sentinel), strings and lists are count-prefixed, options are
    tag-prefixed. Writers emit into [Bytes.t] — growable, or a
    caller-owned fixed buffer for the transport's zero-allocation send
    path. Readers consume a string or bytes slice with hard bounds
    checks — a malformed or truncated frame raises {!Error}, which
    {!Codec} turns into a typed decode error, never an out-of-bounds
    read. *)

exception Error of string
(** Raised by every reader on malformed input, and by writers over a
    fixed buffer on overflow. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
(** A growable writer; retrieve the result with {!contents}. *)

val writer_into : Bytes.t -> pos:int -> writer
(** A fixed writer over [buf] starting at [pos]. Never grows: writing
    past the end of [buf] raises {!Error}. The number of bytes written
    so far is {!pos}. *)

val pos : writer -> int
(** Bytes written so far (relative to the writer's starting point). *)

val reset : writer -> unit
(** Rewind to the starting point, discarding everything written. Lets
    a long-lived writer over a scratch buffer be reused per datagram
    without reallocating. *)

val rebase : writer -> Bytes.t -> pos:int -> unit
(** Re-point a fixed writer at [buf]/[pos] (new starting point, empty
    contents). The batched transport encodes each frame at the tail of
    its batch buffer through one long-lived writer this way. Raises
    [Invalid_argument] on a growable writer or an out-of-bounds
    position. *)

val contents : writer -> string

val byte : writer -> int -> unit
(** Low 8 bits. *)

val int : writer -> int -> unit
val bool : writer -> bool -> unit
val string : writer -> string -> unit
val option : (writer -> 'a -> unit) -> writer -> 'a option -> unit
val list : (writer -> 'a -> unit) -> writer -> 'a list -> unit

(** {1 Length-prefixed regions}

    [begin_frame] reserves room for a length varint and returns a mark;
    write the payload, then [end_frame] encodes the payload length at
    the mark and closes the reservation gap. The resulting bytes are
    exactly what [int w len] followed by the payload would have
    produced — no padded varints — without staging the payload in a
    separate buffer. *)

val begin_frame : writer -> int
val end_frame : writer -> int -> unit

(** {1 Reading} *)

type reader

val reader : ?pos:int -> ?len:int -> string -> reader
(** Read window [\[pos, pos+len)] of the string (default: all of
    it). *)

val reader_bytes : ?pos:int -> ?len:int -> Bytes.t -> reader
(** Zero-copy read window over a [Bytes.t] (the transport's receive
    buffer). The caller must not mutate the buffer while the reader is
    in use. *)

val reset_reader : reader -> ?pos:int -> ?len:int -> string -> unit
(** Re-aim an existing reader at a new window (same contract as
    {!reader}), so a long-lived reader can be reused per frame without
    allocating. *)

val reset_window : reader -> string -> pos:int -> len:int -> unit
(** {!reset_reader} with both bounds required. The optional arguments
    of {!reset_reader} cost two [Some] boxes per call at the call
    site; the decode hot path re-aims its reader through this
    spelling instead, which allocates nothing. *)

val remaining : reader -> int
val r_byte : reader -> int
val r_int : reader -> int
val r_bool : reader -> bool
val r_string : reader -> string
val r_option : (reader -> 'a) -> reader -> 'a option
val r_list : (reader -> 'a) -> reader -> 'a list

val fail : string -> 'a
(** [raise (Error msg)], for decoders layering their own checks. *)
