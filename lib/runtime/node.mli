(** One live protocol instance: a pure {!Tasim.Engine.automaton}
    driven by wall time over a real UDP socket.

    This is the live counterpart of one process slot inside
    {!Tasim.Engine}: the paper's event-based execution environment
    (Section 5) realized with the repo's own building blocks —

    - received datagrams and expired timers are posted as events to an
      {!Eventloop.Dispatcher}, so at most one handler runs at a time
      and the automaton needs no synchronization;
    - [Set_timer]/[Cancel_timer] effects are backed by an
      {!Eventloop.Timer_wheel} keyed by the automaton's timer keys,
      with per-key generations so a re-arm replaces any pending
      occurrence (the engine's timer contract). A timer reaches
      [on_timer] with a clock reading no earlier than its [at_clock];
      each such fire counts [live:sched:timer-fires], and
      [live:sched:timer-late-us] sums how far past [at_clock] it ran;
    - [Send]/[Broadcast] effects go out through a {!Transport};
    - the automaton's hardware-clock readings come from a monotonic
      {!Clock}.

    A node can be {!kill}ed (socket closed, timers cancelled, state
    dropped — a crash-stop) and {!restart}ed (fresh socket, [init]
    rerun with an incremented incarnation), which is how the live
    binary exercises the failure/recovery paths for real. *)

open Tasim

type ('s, 'm, 'obs) t

val create :
  automaton:('s, 'm, 'obs) Engine.automaton ->
  clock:Clock.t ->
  mk_transport:(Stats.t -> 'm Transport.t) ->
  ?on_obs:(Time.t -> 'obs -> unit) ->
  ?on_log:(string -> unit) ->
  unit ->
  ('s, 'm, 'obs) t
(** The node opens its transport (via [mk_transport], so a restart can
    open a fresh socket) but does not run [init] until {!start}. *)

val self : ('s, 'm, 'obs) t -> Proc_id.t
val stats : ('s, 'm, 'obs) t -> Stats.t
val state : ('s, 'm, 'obs) t -> 's option
(** [None] before {!start} and while killed. *)

val is_up : ('s, 'm, 'obs) t -> bool
val incarnation : ('s, 'm, 'obs) t -> int

val fd : ('s, 'm, 'obs) t -> Unix.file_descr option
(** The socket to select on; [None] while killed. *)

val start : ('s, 'm, 'obs) t -> unit
(** Run [init] at the current clock reading (incarnation 0). *)

val kill : ('s, 'm, 'obs) t -> unit
(** Crash-stop: drop state, cancel timers, close the socket. In-flight
    datagrams addressed to the node are lost (real UDP drops them on
    the floor once the port closes). Idempotent. *)

val restart : ('s, 'm, 'obs) t -> unit
(** Reopen the socket and rerun [init] with an incremented
    incarnation. No-op when the node is up. *)

val pause : ('s, 'm, 'obs) t -> unit
(** The SIGSTOP analog: stop scheduling this node. While paused the
    node's fd is withheld from the poll loop (incoming datagrams queue
    in the kernel socket buffer and eventually drop, as for a stopped
    process), {!poll} is a no-op, and {!next_deadline} is [None].
    State and socket survive. No-op while down. *)

val resume : ('s, 'm, 'obs) t -> unit
(** Undo {!pause}; the next {!poll} advances the timer wheel across
    the whole stopped gap, firing every overdue timer late, and the
    queued datagrams flood in — the paused member wakes up behind the
    group and must be absorbed (wrong-suspicion state, adaptive
    suspicion), not crash it. *)

val is_paused : ('s, 'm, 'obs) t -> bool

val inject : ('s, 'm, 'obs) t -> 'm -> unit
(** Deliver a message from the node to itself, bypassing the network —
    the local client call path ({!Tasim.Engine.inject}'s live
    counterpart). Dropped while killed. Processed at the next
    {!poll}. *)

val recv_ready : ('s, 'm, 'obs) t -> unit
(** Drain the socket, posting received messages as dispatcher events
    (called by the poll loop when the fd is readable). Events are not
    processed until {!poll}. *)

val poll : ('s, 'm, 'obs) t -> now:Time.t -> int
(** Release due impaired frames ({!Transport.pump}), advance the timer
    wheel to [now] and dispatch every pending event (timer fires and
    received messages) through the automaton. Returns the amount of
    work done (frames released + timers fired + events dispatched) —
    the poll loop's progress signal (see {!Cluster.run_until}). *)

val transport : ('s, 'm, 'obs) t -> 'm Transport.t
(** The node's current transport — the handle scenarios use to install
    {!Transport.impair} rules. Replaced by {!restart} after a kill. *)

val next_deadline : ('s, 'm, 'obs) t -> Time.t option
(** Earliest pending timer or impaired-frame release, for the select
    timeout; [None] when down with nothing pending. *)
