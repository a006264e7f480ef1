(** The ordering and acknowledgement list (oal).

    A decision message includes an oal "consisting of update/membership
    change descriptors, along with information about which group members
    have received those update/membership changes" (paper, Section 2).
    The oal associates unique numbers — {e ordinals} — to updates and
    membership changes, establishes their stability, and lets receivers
    detect message losses (a descriptor for a proposal they never
    received).

    An oal value is one process's current view of the list. The decider
    extends it and broadcasts it inside its decision message; receivers
    {!merge} the incoming (authoritative) list into their local copy and
    add their own acknowledgements. Entries whose update is stable
    (acknowledged by all group members) and locally delivered are purged
    from the head; [low] records the purge frontier, so a receiver of a
    purged list learns that every ordinal below [low] is stable. *)

open Tasim

type update_info = {
  proposal_id : Proposal.id;
  semantics : Semantics.t;
  send_ts : Time.t;
  hdo : int;
}

type body =
  | Update of update_info
  | Membership of { group : Proc_set.t; group_id : Group_id.t }

type entry = {
  ordinal : int;
  body : body;
  acks : Proc_set.t;  (** members known to have received the item *)
  undeliverable : bool;
      (** decider-set mark: no group member may deliver this update *)
  known_stable : bool;
      (** acknowledged by all members of the group (directly observed,
          or learned from a purged incoming list) *)
}

type t

val empty : t
val low : t -> int
(** Smallest ordinal not yet purged; every ordinal below is stable. *)

val next_ordinal : t -> int
val entries : t -> entry list
(** In increasing ordinal order. *)

val iter_entries : t -> (entry -> unit) -> unit
(** Apply a function to every entry in increasing ordinal order,
    without materializing the list — the serialization and recovery
    hot paths' allocation-free traversal. *)

val iter_entries_ord : t -> (int -> entry -> unit) -> unit
(** Like {!iter_entries} with the ordinal passed first. The callback
    reaches the underlying map unwrapped, so passing a statically
    allocated function costs zero heap words per call — the live
    codec's per-datagram encode depends on this. *)

val cardinal : t -> int
val is_empty : t -> bool

(** {1 Extension (decider side)} *)

val append_update : t -> update_info -> acks:Proc_set.t -> t * int
(** Assign the next ordinal to an update descriptor. Returns the
    ordinal. *)

val append_membership : t -> group:Proc_set.t -> group_id:Group_id.t -> t * int

(** {1 Lookup} *)

val entry_at : t -> int -> entry option
val find_update : t -> Proposal.id -> entry option
val mem_update : t -> Proposal.id -> bool

val first_update_ordinal : t -> Proposal.id -> int option
(** The lowest ordinal of an update entry carrying the id: the entry an
    ascending walk of {!entries} meets first. Unlike {!find_update} it
    answers exactly even when a list holds the id twice. Costs a walk
    up to that entry. *)

val first_from : t -> int -> (entry -> bool) -> int
(** [first_from t o p]: the lowest ordinal [>= o] whose entry satisfies
    [p], [max_int] when none does. The walk stops at that entry and
    calls [p] on no entry below [o], so a caller that knows every entry
    below [o] fails [p] resumes a walk there. *)

val highest_ordinal : t -> int
(** -1 when the list never held an entry. *)

val latest_membership : t -> (int * Proc_set.t * Group_id.t) option
(** The newest membership: [(ordinal, group, group_id)]. Kept even
    after the descriptor entry itself is purged, so receivers of a
    truncated list still learn the current group. *)

(** {1 Acknowledgements and stability} *)

val ack_update : t -> Proposal.id -> Proc_id.t -> t
(** No-op when the descriptor is absent. *)

val mark_stable : t -> (entry -> bool) -> t
(** Set [known_stable] on every entry the predicate accepts, rebuilding
    only those; when none changes, the result is the argument itself. *)

val add_acks : t -> by:Proc_id.t -> (int -> bool) -> t
(** Add [by]'s acknowledgement to every entry whose ordinal the
    predicate accepts, in one walk. The argument itself when no entry
    gains it. *)

val purge_stable : t -> delivered:(int -> bool) -> t
(** Advance [low] over the longest head run of entries that are
    [known_stable] and either [delivered] locally, undeliverable, or
    membership descriptors (whose information survives in
    {!latest_membership}). Purged entries are dropped. *)

(** {1 Undeliverable marking (group changes, Section 4.3)} *)

val mark_undeliverable : t -> Proposal.id -> t
val undeliverable_ids : t -> Proposal.id list

(** {1 Wire view}

    Concrete, loss-free image of an oal for serialization (the live
    runtime's binary codec, {!module:Runtime} when built). The wire
    form exposes exactly the abstract state: entries in increasing
    ordinal order, the purge frontier, the ordinal counter, and the
    latest-membership memo that survives purging. *)

type wire = {
  w_low : int;
  w_next_ordinal : int;
  w_entries : entry list;  (** increasing ordinal order *)
  w_latest : (int * Proc_set.t * Group_id.t) option;
}

val to_wire : t -> wire

val of_wire : wire -> (t, string) result
(** Rebuild an oal; rejects unordered ordinals or entries outside
    [\[w_low, w_next_ordinal)]. [of_wire (to_wire t)] reconstructs [t]
    exactly. *)

(** {1 Merging views} *)

val merge : local:t -> incoming:t -> t
(** Adopt the incoming list as authoritative for ordinals >=
    [low incoming]: incoming entries replace or extend local ones (acks
    are unioned; undeliverable marks are or-ed). Local entries below
    [low incoming] become [known_stable]. The local purge frontier
    [low local] is kept.

    When the incoming list covers the local one — every local entry at
    or above [low incoming] is in it with an equal body, a subset of
    its acks and no flag it lacks, [next_ordinal] does not go back and
    the incoming membership memo is the newer — the result is the
    incoming list plus the local entries below [low incoming]: the
    incoming value itself (physically) when both frontiers are equal.
    A receiver that keeps its own acks beside the list (as
    {!Core} does) is covered by almost every decision, so all members
    share the decider's list. *)

val merge_general : local:t -> incoming:t -> t
(** {!merge} without the covered case: one entry-by-entry union, the
    reference the tests hold {!merge} to. Both give the same {!to_wire}
    image on every pair, and the same {!find_update} answers whenever
    neither list holds an id twice. *)

val is_prefix : t -> of_:t -> bool
(** [is_prefix a ~of_:b]: every entry of [a] appears in [b] with the
    same ordinal and body, ignoring acknowledgement and stability
    differences and entries already purged from either list. *)

val pp : t Fmt.t

val of_wire_indexed :
  low:int ->
  next_ordinal:int ->
  latest:(int * Proc_set.t * Group_id.t) option ->
  count:int ->
  entry:(int -> entry) ->
  (t, string) result
(** {!of_wire} for a decoder holding the parsed entries in an indexed
    scratch buffer: [entry i] is the i-th entry in read order. Same
    validation and result as building a {!wire} record, without the
    intermediate list. *)
