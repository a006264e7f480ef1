(** Versioned binary codec for the live runtime's datagrams.

    Every UDP datagram carries exactly one frame:

    {v
    magic "TW" (2 bytes) | version (1 byte) | sender id (varint)
    | body length (varint) | body (length bytes)
    v}

    The body is a {!Full_stack.msg} — a clocksync message or a group
    communication {!Control_msg} — serialized with {!Wire}. No
    [Marshal]: the format is explicit, versioned, and rejects
    truncated, over-length and wrong-version frames with a typed
    {!error} instead of a crash or a silently garbled message.

    ['u] (update payload) and ['app] (application state shipped to
    joiners) are application types, so their codecs are supplied as a
    {!payload} record; {!string_payload} covers the common
    string-payload / string-list-app instantiation used by
    [timewheel_live]. *)

open Tasim

val version : int
(** Current frame format version (1). *)

val max_frame : int
(** Largest frame [encode] may produce that still fits a single
    localhost UDP datagram (65507 bytes). Oversized frames are the
    sender's problem: {!Transport} counts them as send errors and
    drops them, which the protocol tolerates by design (the datagram
    service is unreliable). *)

type error =
  | Truncated  (** shorter than the fixed header *)
  | Bad_magic
  | Bad_version of int
  | Length_mismatch of { declared : int; actual : int }
      (** body length field disagrees with the datagram: truncated
          (actual < declared) or over-length (actual > declared) *)
  | Malformed of string  (** body failed to decode *)

val pp_error : error Fmt.t

type ('u, 'app) payload = {
  write_u : Wire.writer -> 'u -> unit;
  read_u : Wire.reader -> 'u;
  write_app : Wire.writer -> 'app -> unit;
  read_app : Wire.reader -> 'app;
}

val string_payload : (string, string list) payload

val encode :
  ('u, 'app) payload ->
  sender:Proc_id.t ->
  ('u, 'app) Timewheel.Full_stack.msg ->
  string

val encode_to :
  ('u, 'app) payload ->
  sender:Proc_id.t ->
  ('u, 'app) Timewheel.Full_stack.msg ->
  Wire.writer ->
  int
(** Encode one frame into the writer, discarding anything written to
    it before ([Wire.reset]), and return the frame length. With a
    long-lived fixed writer over a scratch buffer this is the
    zero-allocation send path: no writer record, no staging buffer, no
    closures — steady-state messages cost 0 minor words to encode.
    Raises [Wire.Error] when a fixed writer overflows. Not re-entrant:
    one encode at a time per domain. *)

val decode :
  ('u, 'app) payload ->
  string ->
  (Proc_id.t * ('u, 'app) Timewheel.Full_stack.msg, error) result
(** Decode one frame occupying the whole string (a UDP datagram is
    self-delimiting). Total function: malformed input yields [Error],
    never an exception. *)

val decode_bytes :
  ('u, 'app) payload ->
  Bytes.t ->
  pos:int ->
  len:int ->
  (Proc_id.t * ('u, 'app) Timewheel.Full_stack.msg, error) result
(** [decode] over the window [\[pos, pos+len)] of a receive buffer,
    without copying the datagram out first. The window must not be
    mutated during the call. *)
