(** The group-creator transition function (paper, Section 4.2, Fig. 2).

    This module is the pure heart of the membership protocol: given the
    current creator state and one classified event, it returns the next
    state and a list of directives for the surrounding automaton
    ([Member]) to execute. Keeping it pure and free of message plumbing
    lets the test suite drive every edge of the published state
    diagram directly (experiment E5's conformance matrix).

    Event classification (who is the suspect's successor, does this
    process concur, is the sender the ring predecessor, ...) is the
    caller's job; the environment record carries those facts. *)

open Tasim

type env = {
  self : Proc_id.t;
  group : Proc_set.t;  (** current group-list *)
  n : int;  (** team size *)
  majority : int;
  current_slot : int;
      (** global slot index now — fixes the abstention horizon when
          entering the n-failure state *)
  single_failure_election : bool;
      (** when false (ablation A3), suspicions go straight to the
          n-failure state instead of the no-decision ring *)
}

type event =
  | Fd_timeout of { suspect : Proc_id.t; since : Time.t }
      (** the failure detector reported a timeout failure; [since] is
          the surveillance base timestamp *)
  | Nd_received of {
      from : Proc_id.t;
      suspect : Proc_id.t;
      since : Time.t;
      concur : bool;
          (** this process has heard nothing from the suspect newer
              than [since] *)
      from_ring_predecessor : bool;
          (** the sender is this process's predecessor in the current
              group ring *)
    }
  | Decision_received of {
      from : Proc_id.t;
      from_expected : bool;  (** sender satisfies FD surveillance *)
      from_suspect : bool;  (** sender is the currently suspected process *)
      in_new_group : bool;
          (** true when the decision carries no membership change, or
              carries one whose group contains this process *)
    }
  | Reconfig_received of {
      from_expected : bool;  (** sender satisfies FD surveillance *)
      from_member : bool;
          (** sender is a member of this process's current group — in
              the wrong-suspicion state (whose FD may be suspended when
              the ring successor is this process itself) this is enough
              to join the reconfiguration, closing chaos-17 *)
    }
  | All_new_members_heard
      (** in n-failure, excluded from the new group, and decisions from
          every new-group member have now been received (the delayed
          switch to join, Section 4.2) *)

type directive =
  | Send_no_decision of { suspect : Proc_id.t; since : Time.t }
      (** broadcast a no-decision message requesting the suspect's
          removal *)
  | Exclude_and_decide of { suspect : Proc_id.t }
      (** single-failure election terminated at this process: remove
          the suspect, create the new group, become the decider *)
  | Take_over_decider
      (** wrong-suspicion resolution: assume the decider role using the
          suspect's last decision; membership unchanged *)
  | Resend_last_control
      (** this process is the suspect: retransmit its last control
          message *)
  | Start_reconfiguration
      (** entering n-failure: begin the slotted election, abstaining
          for N-1 slots *)
  | Adopt_decision
      (** accept the decision (merge oal, adopt any membership change) *)
  | Enter_join  (** excluded from the group: return to join state *)

val step :
  env -> Creator_state.t -> event -> Creator_state.t * directive list
(** One transition of Fig. 2. Events that the current state ignores
    return the state unchanged with no directives. *)
