(** Messages of the timewheel group communication service.

    The membership protocol uses three control messages of its own —
    no-decision, join and reconfiguration — and treats the broadcast
    protocol's decision message as a fourth control message (paper,
    Section 4.1). The remaining constructors carry the broadcast data
    path (proposals and loss recovery), the local client call, and the
    application-state transfer performed when a process joins an
    existing group.

    ['u] is the update payload type; ['app] the application state type
    shipped to joiners. Every control message piggybacks the sender's
    alive-list (Section 4.2: "group members piggyback their alive-lists
    on all control messages they send"). *)

open Tasim
open Broadcast

type ('u, 'app) t =
  | Submit of { semantics : Semantics.t; payload : 'u }
      (** local client call, injected via [Engine.inject] *)
  | Proposal_msg of 'u Proposal.t
  | Retransmit of 'u Proposal.t
  | Nack of { missing : Proposal.id list }
  | Decision of decision
  | No_decision of 'u no_decision
  | Join_msg of join
  | Reconfig of 'u reconfig
  | State_transfer of ('u, 'app) state_transfer

and decision = {
  d_ts : Time.t;  (** sender's synchronized clock at send time *)
  d_oal : Oal.t;
  d_alive : Proc_set.t;
}

and 'u no_decision = {
  nd_ts : Time.t;
  nd_suspect : Proc_id.t;
  nd_since : Time.t;
      (** send timestamp of the last control message the suspect is
          known to have followed; receivers concur with the suspicion
          iff they heard nothing fresher from the suspect *)
  nd_view : Oal.t;  (** sender's current view v_p of the oal *)
  nd_dpd : Oal.update_info list;
      (** descriptors of updates the sender delivered unordered *)
  nd_alive : Proc_set.t;
}

and join = {
  j_ts : Time.t;
  j_list : Proc_set.t;
  j_alive : Proc_set.t;
  j_epoch : int;
      (** the sender's formation epoch: 0 for a cold start, one above
          the persisted epoch for a process recovering with stable
          storage. Initial formation only counts join messages of the
          receiver's own epoch, and receivers ratchet their epoch up to
          the largest one heard (see {!Group_id}). *)
}

and 'u reconfig = {
  r_ts : Time.t;
  r_list : Proc_set.t;  (** sender's reconfiguration-list *)
  r_last_decision_ts : Time.t;
      (** timestamp of the last decision message the sender knows *)
  r_view : Oal.t;
  r_dpd : Oal.update_info list;
  r_alive : Proc_set.t;
}

and ('u, 'app) state_transfer = {
  st_ts : Time.t;
  st_group : Proc_set.t;
  st_group_id : Group_id.t;
  st_oal : Oal.t;
  st_app : 'app;
  st_buffers : 'u Buffers.t;
      (** the sender's proposal buffers: payloads still of use plus the
          delivered bookkeeping the joiner needs to avoid re-delivery *)
}

val is_control : ('u, 'app) t -> bool
(** Decision, no-decision, join and reconfiguration messages. *)

val control_ts : ('u, 'app) t -> Time.t option
(** Send timestamp of a control message, [None] otherwise. *)

val alive_of : ('u, 'app) t -> Proc_set.t option
(** Piggybacked alive-list of a control message. *)

val kind : ('u, 'app) t -> string
val pp : ('u, 'app) t Fmt.t
(** Payload-agnostic summary printer. *)
