(** Standalone timewheel atomic broadcast automaton: an adapter over
    {!Core}.

    The full system couples broadcast and membership through shared
    decision messages (that coupling lives in [Timewheel.Member], the
    other adapter over {!Core}). This automaton runs the broadcast
    alone over a {e static} group of all team members, under the
    stable-period assumption (no crashes; decision messages reach the
    next decider). It exists to test the broadcast substrate in
    isolation and to drive experiment E8 (per-semantics delivery
    cost), exactly because the paper evaluates semantics behaviour
    during failure-free periods.

    The adapter adds only what the static group needs around the
    {!Core} transitions: the message and observation types, the
    decider rotation and its decide timer, and the [Stable] reports,
    taken after stability is refreshed and before the stable head is
    purged. A decider sends its decision D time units after assuming
    the role; receivers adopt the merged oal and recover losses with
    targeted negative acknowledgements. *)

open Tasim

type config = {
  d : Time.t;  (** D: max time the decider holds the role *)
  timed_delay : Time.t;  (** delivery delay of [Timed] ordering *)
}

val default_config : config

type 'u msg =
  | Submit of { semantics : Semantics.t; payload : 'u }
      (** client call, injected locally via [Engine.inject] *)
  | Proposal_msg of 'u Proposal.t
  | Decision of { ts : Time.t; oal : Oal.t }
  | Nack of { missing : Proposal.id list }
  | Retransmit of 'u Proposal.t

val kind_of_msg : 'u msg -> string

type 'u obs =
  | Delivered of { proposal : 'u Proposal.t; ordinal : int option }
  | Became_decider
  | Stable of { proposal_id : Proposal.id; ordinal : int }

type 'u state

val automaton : config -> ('u state, 'u msg, 'u obs) Engine.automaton
