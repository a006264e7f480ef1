(** Event trace recording.

    An optional recorder the engine writes message-level events into:
    sends, drops (with reason), deliveries, crashes and recoveries.
    Tests assert over it ("no no-decision message was sent in this
    window"), and the CLI renders it as a timeline. Message payloads
    are recorded as their classifier kind (see [Engine.classify]), so
    the trace is monomorphic and cheap. *)

type event =
  | Sent of { src : Proc_id.t; dst : Proc_id.t; kind : string }
  | Dropped of {
      src : Proc_id.t;
      dst : Proc_id.t;
      kind : string;
      reason : string;
    }
  | Delivered of { src : Proc_id.t; dst : Proc_id.t; kind : string }
  | Crashed of Proc_id.t
  | Recovered of Proc_id.t

type entry = { at : Time.t; event : event }

type t

val create : ?capacity:int -> unit -> t
(** A bounded recorder (default 100_000 entries); past capacity the
    oldest entries are discarded. *)

val record : t -> Time.t -> event -> unit
val length : t -> int
val dropped_entries : t -> int
(** Entries discarded because the capacity was reached. *)

val entries : t -> entry list
(** Oldest first. *)

val between : t -> from:Time.t -> until:Time.t -> entry list

val count :
  ?kind:string -> ?src:Proc_id.t -> ?dst:Proc_id.t -> t -> int
(** Number of [Sent] entries matching the given filters. *)

val clear : t -> unit
val pp_entry : entry Fmt.t
