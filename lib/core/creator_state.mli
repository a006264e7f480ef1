(** Group-creator states (paper, Figure 2).

    "We describe a group creator as a finite state machine with six
    states: join, failure-free, wrong-suspicion, 1-failure-receive,
    1-failure-send, and n-failure." *)

open Tasim

type t =
  | Join
  | Failure_free
  | Wrong_suspicion of { suspect : Proc_id.t }
      (** a single failure was suspected and this process does not
          concur *)
  | One_failure_receive of { suspect : Proc_id.t; since : Time.t }
      (** concurs with a single failure suspicion, waiting for the
          no-decision ring to reach it *)
  | One_failure_send of { suspect : Proc_id.t; since : Time.t }
      (** concurs and has already sent its no-decision message *)
  | N_failure of { wait_until_slot : int }
      (** multiple failures: the slotted reconfiguration election is
          running; this process abstains (sends empty
          reconfiguration-lists) until the given global slot index *)

(** State identity without per-state data: transition-coverage matrices
    and tests key on this. *)
type kind = KJoin | KFailure_free | KWrong_suspicion | KOne_failure_receive
          | KOne_failure_send | KN_failure

val kind_of : t -> kind

val up_to_date : t -> bool
(** Fail-awareness: false exactly in the join and n-failure states,
    where a process knows its view is out of date (it has no live ring
    to keep the view current). *)

val all_kinds : kind list
val kind_to_string : kind -> string
val equal_kind : kind -> kind -> bool
val pp : t Fmt.t
val pp_kind : kind Fmt.t
