(** The timewheel group communication service, assembled.

    This is the public entry point for applications and experiments: it
    builds a team of {!Member} automata on a {!Tasim.Engine} with
    synchronized clocks, and exposes submission, observation callbacks,
    fault injection and running. Examples and the benchmark harness sit
    on this API.

    ['u] is the update payload; ['app] the replicated application state
    (see {!Member}). *)

open Tasim
open Broadcast

type clocks =
  | Perfect  (** all synchronized clocks equal to real time *)
  | Oracle
      (** per-process offsets within epsilon/2 and drift within the
          hardware bound — the assumed interface of the fail-aware
          clock synchronization service (see DESIGN.md) *)

type ('u, 'app) t

val create :
  ?engine_config:Engine.config ->
  ?clocks:clocks ->
  ?apply:('app -> 'u -> 'app) ->
  initial_app:'app ->
  Params.t ->
  ('u, 'app) t
(** Build a team of [Params.n] members, all starting at time 0 in the
    join state; the initial group forms by the join protocol. The
    engine's network delta is forced to the protocol's delta.

    Every member is wired to a per-process {!Storage.Store} slot: it
    persists its last installed view at each view install and recovers
    its formation epoch from it after a crash (see {!Member.persistent}
    and {!Broadcast.Group_id}). *)

val params : ('u, 'app) t -> Params.t
val engine :
  ('u, 'app) t ->
  (('u, 'app) Member.state, ('u, 'app) Control_msg.t, 'u Member.obs) Engine.t
(** The underlying engine, for fault scripting and advanced probes. *)

val run : ('u, 'app) t -> until:Time.t -> unit
val now : ('u, 'app) t -> Time.t

(** {1 Client operations} *)

val submit :
  ('u, 'app) t -> Proc_id.t -> semantics:Semantics.t -> 'u -> unit
(** Submit an update at the given member, now. *)

val submit_at :
  ('u, 'app) t -> Time.t -> Proc_id.t -> semantics:Semantics.t -> 'u -> unit

(** {1 Observation} *)

type view = { group : Proc_set.t; group_id : Group_id.t; at : Time.t }

val on_view : ('u, 'app) t -> (Proc_id.t -> view -> unit) -> unit
(** Called on every [View_installed] observation. *)

val on_delivery :
  ('u, 'app) t ->
  (Proc_id.t -> at:Time.t -> 'u Proposal.t -> ordinal:int option -> unit) ->
  unit

val on_obs :
  ('u, 'app) t -> (Time.t -> Proc_id.t -> 'u Member.obs -> unit) -> unit
(** Raw observation stream (transitions, suspicions, ...). *)

val views_installed : ('u, 'app) t -> (Proc_id.t * view) list
(** All view installations so far, in time order. *)

val current_view : ('u, 'app) t -> Proc_id.t -> view option
(** Latest view installed at the member. *)

val agreed_view : ('u, 'app) t -> view option
(** When every currently-up member that has a view agrees on the same
    newest group, that view; [None] while they diverge. *)

val decider : ('u, 'app) t -> Proc_id.t option
(** The lowest-numbered up member that holds the decider role, if
    any. *)

(** {1 Fault injection} *)

val storage : ('u, 'app) t -> Member.persistent Storage.Store.t
(** The per-process stable store backing the members' persistence, for
    fault injection ([Storage.Store.set_fault]) and test assertions. *)

val crash_at : ('u, 'app) t -> Time.t -> Proc_id.t -> unit
(** Crash the process at [time] (see [Engine.crash_at]) and drop its
    store's lost-flush writes ({!Storage.Store.note_crash}); durable
    records survive. *)

val recover_at : ('u, 'app) t -> Time.t -> Proc_id.t -> unit
val partition_at : ('u, 'app) t -> Time.t -> Proc_set.t list -> unit
val heal_at : ('u, 'app) t -> Time.t -> unit

val drop_control :
  ('u, 'app) t ->
  ?max_drops:int ->
  name:string ->
  kind:string ->
  src:Proc_id.t option ->
  dst:Proc_id.t option ->
  unit ->
  unit
(** Install a network filter dropping control messages of the given
    kind (as returned by [Control_msg.kind]) between the given
    endpoints ([None] = any). *)

(** {1 Inspection} *)

val member_state : ('u, 'app) t -> Proc_id.t -> ('u, 'app) Member.state option
val app_state : ('u, 'app) t -> Proc_id.t -> 'app option
val stats : ('u, 'app) t -> Stats.t

val enable_trace : ?capacity:int -> ('u, 'app) t -> Trace.t
(** Start recording a message-level event trace (see [Tasim.Trace]);
    returns the recorder for querying and rendering. *)
