(** The full Figure 1 stack, live: ready-made wiring of
    {!Timewheel.Full_stack} (clock synchronization + membership +
    broadcast) onto {!Node}/{!Cluster} with the string-payload codec.

    This is what [timewheel_live] runs: update payloads are strings,
    the replicated application state is the list of delivered updates
    (newest first), stable storage is a {!Live_store}, and each member
    owns UDP port [base_port + id] on localhost. *)

open Tasim
open Broadcast
open Timewheel

type msg = (string, string list) Full_stack.msg
type state = (string, string list) Full_stack.state
type obs = string Full_stack.obs
type node = (state, msg, obs) Node.t
type cluster = (state, msg, obs) Cluster.t

type config = {
  n : int;
  base_port : int;
  params : Params.t;
  cs_config : Clocksync.Protocol.config;
  store : Live_store.t;
  batching : bool option;
      (** Forced syscall-batching mode for every transport; [None]
          (the default) defers to {!Mmsg.default_enabled} — batched
          where the platform supports it, portable loop under
          [TW_MMSG=0]. *)
}

val config :
  ?base_port:int ->
  ?params:Params.t ->
  ?cs_config:Clocksync.Protocol.config ->
  ?store:Live_store.t ->
  ?batching:bool ->
  n:int ->
  unit ->
  config
(** Defaults: base port 47800, in-memory store, protocol params
    [Params.make ~n] with sigma and epsilon widened to 5 ms (real
    scheduling is far noisier than the simulator's), clocksync
    defaults for [n]. *)

(** {1 Assembly} *)

val mk_node :
  config ->
  clock:Clock.t ->
  self:Proc_id.t ->
  ?on_obs:(Time.t -> obs -> unit) ->
  ?on_log:(string -> unit) ->
  unit ->
  node
(** [on_obs] is {!Node.create}'s: it sees every observation of this
    member (views installed, updates delivered, clock-sync events) at
    its clock reading, as it happens. *)

val in_process :
  config ->
  ?on_obs:(Proc_id.t -> Time.t -> obs -> unit) ->
  ?on_log:(Proc_id.t -> string -> unit) ->
  unit ->
  Clock.t * cluster
(** All [n] members as nodes of one cluster in this process — each
    still a real UDP endpoint on localhost. Nodes are created but not
    started. *)

(** {1 Inspection} *)

val member_of : node -> (string, string list) Member.state option
(** [None] while down or before the member's clock first
    synchronized. *)

val decider : cluster -> Proc_id.t option
(** The current decider, if some up member believes it holds the
    role. *)

val agreed_view : cluster -> (Proc_set.t * Group_id.t) option
(** The view the group agrees on: every up, unpaused node holds a
    member state, and all of them hold the same known, non-empty view.
    [None] otherwise — a restarted node that has not resynchronized
    its clock yet is disagreement, not absence. A paused node is left
    out: its state is frozen mid-past by design. *)

val submit : node -> semantics:Semantics.t -> string -> unit
(** Inject a client update at this member (local call path). *)
