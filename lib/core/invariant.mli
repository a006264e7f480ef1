(** Cross-member safety invariants.

    Machine-checkable statements of the protocol's safety claims,
    evaluated over a snapshot of every member's state. The property
    tests and experiment E5b sample these during randomized churn; any
    violation is a protocol bug, never load-dependent noise. *)

open Tasim

val take :
  (('u, 'app) Member.state, ('u, 'app) Control_msg.t, 'u Member.obs) Engine.t ->
  (Proc_id.t * ('u, 'app) Member.state) list
(** States of every process that is currently up. *)

type violation = {
  property : string;
  detail : string;
}

val pp_violation : violation Fmt.t

val check_all :
  n:int -> (Proc_id.t * ('u, 'app) Member.state) list -> violation list
(** Every violation of the four properties:
    - ordinal consistency, the heart of the broadcast/membership
      coupling: among up-to-date members of the newest group, an
      ordinal present in two oals carries the same body. Ordinals are
      assigned by one decider at a time, so two members may disagree
      on what they have {e seen} but never on what an ordinal
      {e means}; a dual-decider bug shows up here first.
    - view consistency, Section 3's property (2) restricted to
      up-to-date members: two of them with the same group id hold the
      same group, and the newest group id is held identically by all
      that reached it.
    - majority, Section 3's property (5): every group held by one of
      its members contains a majority of the team.
    - epoch monotonicity: within every member's oal, membership
      descriptors carry strictly increasing group ids in ordinal order
      (catches an old-epoch view surviving a re-formation, the
      chaos-11 class of bug). *)
