(** The live poll loop: one or many {!Node}s multiplexed over
    [poll(2)] (via {!Poll} — no FD_SETSIZE cap, unlike the
    [Unix.select] loop it replaced).

    Runs the classic single-threaded event loop: poll every node
    (advancing timer wheels to the shared monotonic clock and
    dispatching), compute the earliest pending timer deadline across
    nodes, sleep in [poll] on every live socket until that deadline,
    hand readable sockets back to their nodes, repeat. With one node
    this is the per-process runtime of the one-process-per-member
    deployment; with N nodes it is the in-process multi-instance mode
    (N real UDP sockets on localhost, one OS process).

    {!Sharded} scales this across OCaml 5 domains: each shard runs
    its own loop over its own nodes — per-domain timer wheels,
    dispatchers, clocks and sockets, with no shared mutable state
    between shards (the codec's scratch is domain-local and {!Stats}
    counters are atomic, so nothing leaks across). *)

open Tasim

type ('s, 'm, 'obs) t

val create :
  clock:Clock.t -> nodes:('s, 'm, 'obs) Node.t list -> ('s, 'm, 'obs) t

val nodes : ('s, 'm, 'obs) t -> ('s, 'm, 'obs) Node.t list
val node : ('s, 'm, 'obs) t -> Proc_id.t -> ('s, 'm, 'obs) Node.t
(** Raises [Not_found] on an id no node carries. *)

val start : ('s, 'm, 'obs) t -> unit
(** {!Node.start} every node. *)

val run_until :
  ('s, 'm, 'obs) t ->
  deadline:Time.t ->
  ?poll_cap:Time.t ->
  (unit -> bool) ->
  bool
(** Drive the loop until the predicate holds (checked once per
    iteration, after polling) or the monotonic clock passes
    [deadline]. Returns [true] iff the predicate was met. [poll_cap]
    (default 100 ms) bounds each poll sleep so predicate changes
    caused by external action (kill/restart from a signal handler,
    say) are noticed promptly. *)

val select_timeout : progressed:bool -> now:Time.t -> next:Time.t -> float
(** The poll sleep (seconds) given the earliest pending deadline
    [next] and whether the last poll pass did any work. A future
    [next] sleeps until it, to the microsecond; an overdue [next]
    re-polls immediately only after a productive pass, and otherwise
    sleeps a small floor —
    an overdue deadline a barren poll could not retire cannot be
    retired until real time advances, and a zero timeout would
    busy-spin on it. Exposed for the regression test. *)

val run_for : ('s, 'm, 'obs) t -> span:Time.t -> unit
(** [run_until] with an always-false predicate: plain running. *)

(** {1 Multicore sharding} *)

module Sharded : sig
  val recommended : unit -> int
  (** [Domain.recommended_domain_count ()]: how many shards this
      machine can actually run in parallel. *)

  val run : shards:int -> (shard:int -> 'a) -> 'a list
  (** [run ~shards f] runs [f ~shard:i] for [i] in [0..shards-1], each
      in its own domain (inline when [shards = 1]), and returns the
      results in shard order. [f] must build everything it touches —
      clock, transports, nodes, cluster — inside the call so each
      domain owns its state; shards must not share a port range. All
      domains are joined before any shard's exception is re-raised.
      Raises [Invalid_argument] when [shards <= 0]. *)
end
