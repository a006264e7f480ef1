(** The complete timewheel group-communication member.

    One value of {!type:state} is the entire protocol stack of one team
    member: the failure detector (Section 4.2), the six-state group
    creator (Fig. 2) with both the single-failure no-decision ring and
    the slotted multiple-failure reconfiguration election, the join
    protocol, and the atomic broadcast data path (oal, buffers,
    delivery, rotating decider) whose decision messages double as the
    membership heartbeat — during failure-free periods the membership
    protocol adds no messages of its own (the paper's headline claim).

    The automaton runs on the {e synchronized} time base: the
    [clock] values the engine feeds it must come from synchronized
    clocks (oracle or the [clocksync] protocol) with pairwise deviation
    at most [epsilon].

    ['u] is the update payload; ['app] the replicated application
    state, maintained inside the member by folding delivered updates so
    it can be shipped to joiners ("q retrieves its application state by
    calling a dedicated function provided by the application",
    Section 4.2). *)

open Tasim
open Broadcast

type persistent = { last_group_id : Group_id.t; last_group : Proc_set.t }
(** The stable-storage record a member maintains: the group id (whose
    epoch component is what crash recovery needs) and membership of the
    last installed view. Written through [config.persist] at every view
    install; read back through [config.restore] at (re)initialization
    to pick the formation epoch. *)

type ('u, 'app) config = {
  params : Params.t;
  apply : 'app -> 'u -> 'app;  (** deterministic update application *)
  initial_app : 'app;
  persist : self:Proc_id.t -> now:Time.t -> persistent -> unit;
      (** stable-storage write hook, called at every view install *)
  restore : self:Proc_id.t -> now:Time.t -> persistent option;
      (** stable-storage read hook, called once at initialization *)
}

val config :
  ?apply:('app -> 'u -> 'app) ->
  ?persist:(self:Proc_id.t -> now:Time.t -> persistent -> unit) ->
  ?restore:(self:Proc_id.t -> now:Time.t -> persistent option) ->
  initial_app:'app ->
  Params.t ->
  ('u, 'app) config
(** [apply] defaults to ignoring updates (membership-only runs).
    [persist]/[restore] default to no storage (every incarnation is
    amnesiac, the seed behaviour); {!Service} wires them to a
    {!Storage.Store} so recovery is epoch-aware. No store reads the
    hooks' [~now]; it stays in the signature because external
    callers (the benchmark) build against it. *)

type 'u obs =
  | View_installed of { group : Proc_set.t; group_id : Group_id.t }
      (** a new group-list was adopted (including the initial one and
          re-adoption after a rejoin) *)
  | Delivered of { proposal : 'u Proposal.t; ordinal : int option }
  | Transition of {
      from_ : Creator_state.kind;
      to_ : Creator_state.kind;
    }  (** group-creator state change, for conformance tracking *)
  | Suspected of { suspect : Proc_id.t }
      (** the local failure detector reported a timeout failure *)
  | Late_rejected of { from : Proc_id.t }
      (** a control message was rejected as late (fail-aware datagram
          rejection: the sender is not sigma-stable right now) *)
  | Became_decider
  | Excluded  (** this process learned it was removed from the group *)

val pp_obs : 'u obs Fmt.t

type ('u, 'app) state

val automaton :
  ('u, 'app) config ->
  (('u, 'app) state, ('u, 'app) Control_msg.t, 'u obs) Engine.automaton

(** {1 Client operations}

    Submissions enter through the message channel so that harnesses can
    use [Engine.inject p (submit ...)]. *)

val submit : semantics:Semantics.t -> 'u -> ('u, 'app) Control_msg.t

(** {1 Inspection} *)

val creator_state : ('u, 'app) state -> Creator_state.t
val group : ('u, 'app) state -> Proc_set.t
(** Current group-list (empty before any group was formed). *)

val group_id : ('u, 'app) state -> Group_id.t
(** {!Group_id.none} before any group was formed. *)

val form_epoch : ('u, 'app) state -> int
(** The epoch any initial formation this process takes part in would
    use: 0 cold, one above the persisted epoch after recovery,
    ratcheted up by join messages carrying a later epoch. *)

val has_group : ('u, 'app) state -> bool
val is_decider : ('u, 'app) state -> bool
val app : ('u, 'app) state -> 'app
val oal_of : ('u, 'app) state -> Oal.t
val buffers_of : ('u, 'app) state -> 'u Buffers.t
val alive_list : ('u, 'app) state -> now:Time.t -> Proc_set.t
val failure_detector : ('u, 'app) state -> Failure_detector.t
