(** The whole Figure 1 stack in one automaton.

    The paper's architecture (Fig. 1) layers the broadcast + membership
    protocols on the fail-aware clock synchronization service, all over
    the unreliable datagram service. Most experiments study membership
    over {e oracle} synchronized clocks (DESIGN.md); this module is the
    real composition: a product automaton running the
    {!Clocksync.Protocol} and the {!Member} side by side on raw
    hardware clocks.

    The member half lives on the synchronized time base:

    - it is only started once the local clock first synchronizes;
    - its timers, expressed in synchronized time, are translated to
      hardware time through the sync clock (and re-translated if the
      translation drifts);
    - while the clock is {e not} synchronized, group-communication
      messages are dropped and member timers are deferred — the process
      will be excluded by the others and rejoins when synchronization
      returns, exactly the paper's prescription: "A process p that
      cannot keep its clock synchronized is removed from the current
      group ... When p can synchronize its clock again, p applies to
      join the group again" (Section 2).

    Experiment E9 runs this stack and compares it with the oracle-clock
    service. *)

open Tasim

type ('u, 'app) msg =
  | Cs of Clocksync.Protocol.msg  (** clock synchronization traffic *)
  | Gc of ('u, 'app) Control_msg.t  (** group communication traffic *)

val kind_of_msg : ('u, 'app) msg -> string

type 'u obs =
  | Member_obs of 'u Member.obs
  | Sync_obs of Clocksync.Protocol.obs
  | Member_started  (** the clock synchronized for the first time *)

type ('u, 'app) state

val automaton :
  ('u, 'app) Member.config ->
  Clocksync.Protocol.config ->
  (('u, 'app) state, ('u, 'app) msg, 'u obs) Engine.automaton
(** The engine's clock sources must be the {e hardware} clocks. *)

val submit : semantics:Broadcast.Semantics.t -> 'u -> ('u, 'app) msg

(** {1 Inspection} *)

val member : ('u, 'app) state -> ('u, 'app) Member.state option
(** [None] until the clock first synchronizes. *)

