(** Delivery conditions.

    "Updates stored in these buffers are delivered to the clients when
    three delivery conditions, atomicity, order, and general, are
    satisfied" (paper, Section 2). This module concretizes the three
    conditions for the nine (ordering x atomicity) combinations — see
    DESIGN.md for the mapping to the companion paper [19]:

    - {e general}: the proposal has been received, is not marked
      undeliverable (locally or in the oal), and — except for unordered
      proposals, which may be delivered before being ordered — has been
      assigned an ordinal.
    - {e order}: [Unordered] has no constraint. [Total] and [Timed]
      deliver in ordinal order: every lower-ordinal ordered update must
      be delivered or undeliverable first. [Timed] additionally waits
      until the synchronized clock passes [send_ts + timed_delay].
    - {e atomicity}: [Weak] has no constraint. [Strong] requires every
      update with ordinal <= the proposal's hdo to be received locally
      (or undeliverable). [Strict] requires those updates to be stable
      (acknowledged by all group members, or undeliverable).

    The oal-wide conditions are checked against three frontiers, each
    the lowest ordinal of an update entry still in the way: the {e
    order} frontier (a total or timed entry neither delivered nor
    undeliverable), the {e unreceived} frontier and the {e unstable}
    frontier (an entry neither received, resp. stable, nor
    undeliverable). A total or timed proposal is in order iff its
    ordinal is at most the order frontier; Strong holds iff its hdo is
    below the unreceived frontier, Strict iff below the unstable one.
    Each frontier costs one early-exit walk of the oal, taken only when
    a candidate needs it. *)

open Tasim

type 'u delivery = { proposal : 'u Proposal.t; ordinal : int option }

val step :
  oal:Oal.t ->
  buffers:'u Buffers.t ->
  now_sync:Time.t ->
  timed_delay:Time.t ->
  'u delivery list * 'u Buffers.t
(** Deliver every proposal the conditions allow right now and mark
    them delivered in the returned buffers. Deliveries go in rounds:
    each round delivers every pending proposal deliverable against the
    buffers at its start, and a round that delivers something is
    followed by another, since delivering moves the order frontier up.
    Within a round, proposals with no ordinal come first in id order,
    then the rest in ordinal order. Only the order frontier moves
    between rounds, so a later round re-checks only the proposals it
    held back, and its walk resumes where the last one stopped. With no
    proposal pending it walks nothing. *)

val blocked_reason :
  oal:Oal.t ->
  buffers:'u Buffers.t ->
  now_sync:Time.t ->
  timed_delay:Time.t ->
  'u Proposal.t ->
  string option
(** Diagnostic: why a given stored proposal is not deliverable right
    now ([None] when it is), from the same checks and frontiers {!step}
    delivers by, in the order general, timing, order, atomicity. Used by
    tests and the CLI inspector. *)
