(** The unreliable failure detector (paper, Section 4.2).

    The failure detector of process p keeps all group members under
    surveillance by checking that they send control messages
    periodically. It maintains

    - an {e alive-list}: p plus every process from which p received at
      least one (timely, fresh) control message in the last N slots;
    - an {e expected sender}: after accepting a control message with
      send timestamp [ts] from x, a control message with a greater
      timestamp is expected from x's group successor before
      synchronized time [ts + 2D] — on expiry, a {e timeout failure}
      of that successor is reported to the group creator.

    The detector is unreliable by construction: an alive-list may
    contain crashed processes and omit live ones, and different
    detectors may disagree (Section 4.1).

    This module is pure state; the surrounding automaton arms real
    timers from {!deadline} and feeds expiry back via
    {!timeout_suspect}. All times are synchronized-clock times. *)

open Tasim

type t

val create : Params.t -> self:Proc_id.t -> t

(** {1 Message admission} *)

type verdict =
  | Fresh  (** timely, not a duplicate: the message must be processed *)
  | Stale  (** duplicate or old (timestamp not newer): reject *)
  | Late  (** apparent transmission delay exceeded the fail-aware
              bound: reject (sender not sigma-stable) *)

val admit : t -> from:Proc_id.t -> ts:Time.t -> now:Time.t -> t * verdict
(** Check a control message and, when [Fresh], record the sender as
    heard-from. *)

val note_sent : t -> ts:Time.t -> t
(** Record a control message this process itself just sent: needed so a
    process never concurs with a suspicion of itself (it knows it
    spoke). *)

val heard_after : t -> Proc_id.t -> since:Time.t -> bool
(** Has a control message with timestamp strictly greater than [since]
    been accepted from the process? Decides concurrence with a
    suspicion. *)

val alive_list : t -> now:Time.t -> Proc_set.t
(** Self plus every process heard from within the last N slots. *)

val forget : t -> Proc_id.t -> t
(** Erase the heard-from record of a process (used after it is excluded
    so a stale record cannot immediately re-admit it). *)

(** {1 Local health (Lifeguard)}

    When [Params.adaptive_suspicion] is set, evidence that {e this}
    process is running slowly — a late-rejected inbound message, or a
    local timer that fired well past its deadline — bumps a saturating
    local-health score. The surveillance timeout is the base
    [Params.fd_timeout] scaled by [1 + health], so a slow member
    stretches its own deadlines instead of wrongly suspecting timely
    peers (Lifeguard's local health multiplier, PAPERS.md). The score
    decays by one per elapsed cycle of fresh traffic. With adaptive
    suspicion off the score is pinned at 0 and every deadline is
    byte-identical to the paper's 2D rule. *)

val note_late_evidence : t -> now:Time.t -> t
(** Record lateness evidence against this process itself (no-op unless
    adaptive suspicion is enabled). *)

val health : t -> int
(** Current local-health score (0 = healthy). *)

val timeout : t -> Time.t
(** The surveillance deadline increment currently in force:
    [fd_timeout * (1 + health)]. *)

(** {1 Expected-sender surveillance} *)

val expect : t -> sender:Proc_id.t -> base:Time.t -> t
(** Arm surveillance: a control message from [sender] with timestamp >
    [base] is expected before [base + 2D]. *)

val suspend : t -> t
(** Stop ring surveillance (used in the n-failure state, where the
    slotted reconfiguration protocol takes over). *)

val deadline : t -> Time.t option
(** The synchronized time at which a timeout failure must be reported,
    when surveillance is armed. *)

val satisfied_by : t -> from:Proc_id.t -> ts:Time.t -> bool
(** Does an accepted control message satisfy the current surveillance
    (right sender, fresh enough timestamp)? *)

val timeout_suspect : t -> now:Time.t -> Proc_id.t option
(** When [now] has reached the deadline, the process to suspect (the
    expected sender); [None] when surveillance is not armed or not yet
    expired. *)

val pp : t Fmt.t
