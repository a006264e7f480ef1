(** Stable storage for live members: {!Storage.Store} holding the
    {!Timewheel.Member.persistent} record, with its on-disk codec.

    The member automaton persists its record (last installed group id
    + membership) at every view install and restores it at
    (re)initialization, which is what makes a restart rejoin
    epoch-aware instead of amnesiac (see {!Broadcast.Group_id}). The
    store's backends, durability contract and fault hook are
    {!Storage.Store}'s; this module only fixes the record type and
    the bytes an on-disk record is made of. *)

open Tasim
open Timewheel

type t = Member.persistent Storage.Store.t

val in_memory : ?stats:Stats.t -> unit -> t
(** {!Storage.Store.in_memory}: survives kill/restart of a member
    {e within} one OS process (the in-process multi-instance mode). *)

val on_disk : ?stats:Stats.t -> dir:string -> unit -> t
(** {!Storage.Store.on_disk} with the record codec below: one file per
    member, surviving OS process restarts for the
    one-process-per-member mode. *)

val persist : t -> self:Proc_id.t -> Member.persistent -> unit
val restore : t -> self:Proc_id.t -> Member.persistent option

val wire_of_persistent : Member.persistent -> string
val persistent_of_wire : string -> Member.persistent option
(** The on-disk record codec ([TWST2] magic, payload, CRC-32 trailer).
    [persistent_of_wire] rejects any mutation of a valid record, so a
    torn, truncated or bit-flipped file restores as [None]. *)
