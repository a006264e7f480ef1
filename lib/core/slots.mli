(** Slot and cycle arithmetic over the synchronized time base.

    "The global time-base provided by the synchronized clocks is divided
    into cycles and the cycles are divided into slots; each team member
    has exactly one slot per cycle." (paper, Section 4.1)

    Slot [s] covers synchronized time [\[s * slot_len, (s+1) *
    slot_len)]; its owner is team member [s mod n]. *)

open Tasim

val index : Params.t -> Time.t -> int
(** Global slot index at a synchronized time (0 for t < slot_len). *)

val owner : Params.t -> int -> Proc_id.t
(** Owner of a global slot index. *)

val owner_at : Params.t -> Time.t -> Proc_id.t
val start_of : Params.t -> int -> Time.t

val next_own_slot : Params.t -> self:Proc_id.t -> now:Time.t -> Time.t
(** Start time of [self]'s next slot strictly after [now]. If [now] is
    inside [self]'s slot, this is the slot one cycle later. *)

val current_own_slot_start :
  Params.t -> self:Proc_id.t -> now:Time.t -> Time.t option
(** Start of [self]'s slot when [now] lies inside it. *)

val in_last_k_slots : Params.t -> now:Time.t -> sent_at:Time.t -> k:int -> bool
(** Was [sent_at] within the last [k] slots (inclusive of the current
    one)? *)

val was_own_latest_slot :
  Params.t -> sender:Proc_id.t -> sent_at:Time.t -> now:Time.t -> bool
(** Was the message sent during [sender]'s most recent slot (the
    sender's own slot in the current or previous cycle, whichever has
    already begun)? This is the "in the p's last time slot" condition
    of the join and reconfiguration elections. *)
