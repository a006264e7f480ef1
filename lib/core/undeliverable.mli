(** Undeliverable proposals (paper, Section 4.3).

    When a membership change removes processes, some updates proposed
    by the departed members must be discarded to preserve the ordering
    and atomicity semantics. "We call a proposal that should not be
    delivered by any of the current group members an undeliverable
    proposal"; it falls in one of four categories:

    + {e lost}: its descriptor is in the oal but no current member has
      received it;
    + {e orphan-order}: total/time ordered, and an undeliverable
      proposal by the same sender has a smaller ordinal (FIFO would be
      violated);
    + {e orphan-atomicity}: strong/strict atomicity, and an
      undeliverable proposal has an ordinal <= its hdo (a dependency is
      gone);
    + {e unknown dependency}: strong/strict atomicity and its hdo
      exceeds the highest ordinal known to the remaining members (it
      depends on orderings only the departed decider knew).

    The classification runs at the new decider when it rebuilds the oal
    from the views carried on no-decision/reconfiguration messages. *)

open Tasim
open Broadcast

type category = Lost | Orphan_order | Orphan_atomicity | Unknown_dependency

val classify :
  oal:Oal.t ->
  departed:Proc_set.t ->
  highest_known_ordinal:int ->
  (Proposal.id * category) list
(** Compute the undeliverable set over the rebuilt oal (whose ack bits
    already reflect the views of all new group members). The oal's ack
    sets decide "received by no current member": an update descriptor
    with an empty ack set restricted to survivors is lost. Categories 2
    and 3 are closed iteratively (an orphan makes later proposals
    orphans in turn). Results are in ordinal order; each proposal is
    reported once with the first category that condemned it. *)

val apply :
  oal:Oal.t -> (Proposal.id * category) list -> Oal.t
(** Mark every classified proposal undeliverable in the oal. *)

val pending_category :
  undeliverable_ordinals:int list ->
  highest_known_ordinal:int ->
  semantics:Semantics.t ->
  hdo:int ->
  category option
(** Classify a {e pending} (received but not yet ordered) proposal from
    a departed member against the rebuilt oal: the unknown-dependency
    and orphan-atomicity rules are the ones that can condemn a proposal
    that never got an ordinal. *)
