(** Protocol parameters.

    The timed asynchronous model and the protocol are parameterized by
    a handful of bounds (paper, Sections 2 and 4.2):

    - [n]: team size (N in the paper);
    - [delta]: one-way time-out delay of the datagram service;
    - [sigma]: maximum timely scheduling delay;
    - [epsilon]: maximum deviation between synchronized clocks;
    - [d]: the maximum interval after which a decider sends its
      decision message (D in the paper);
    - [slot_len]: length of a time slot, which "has to be at least
      D + delta" (Section 4.2);
    - [timed_delay]: delivery delay for [Timed]-ordered updates;
    - [pacing]: when a decider sends its decision within the D bound.

    All times are on the synchronized clock time base. *)

open Tasim

(** When a decider sends its decision. D is the paper's maximum
    interval; the decision doubles as the ring heartbeat. *)
type pacing =
  | Paced  (** always after the full D: the paper's rotation *)
  | Eager
      (** 1 µs after taking the role, whether or not any proposal is
          pending, so an idle group rotates the role as fast as
          decisions travel *)
  | Adaptive
      (** a failure-free decider that holds a proposal with no oal
          descriptor sends [delta] after the previous decision (at once
          when that has passed), never after its D deadline; a decider
          that holds none waits D, so an idle group runs exactly as
          [Paced] *)

type t = private {
  n : int;
  delta : Time.t;
  sigma : Time.t;
  epsilon : Time.t;
  d : Time.t;
  slot_len : Time.t;
  timed_delay : Time.t;
  pacing : pacing;
  single_failure_election : bool;
      (** the paper's fast path: the no-decision ring for single
          failures. Disabling it (ablation A3) routes every suspicion
          through the slotted reconfiguration election *)
  adaptive_suspicion : bool;
      (** Lifeguard-style local health: late-message and late-timer
          evidence at a member stretches that member's own suspicion
          timeout, so a slow member doubts itself before its peers *)
}

val make :
  ?delta:Time.t ->
  ?sigma:Time.t ->
  ?epsilon:Time.t ->
  ?d:Time.t ->
  ?slot_len:Time.t ->
  ?timed_delay:Time.t ->
  ?pacing:pacing ->
  ?single_failure_election:bool ->
  ?adaptive_suspicion:bool ->
  n:int ->
  unit ->
  t
(** Defaults: delta = 10ms, sigma = 1ms, epsilon = 2ms, d = 30ms,
    slot_len = d + delta, timed_delay = 200ms, pacing = Adaptive,
    single_failure_election = true, adaptive_suspicion = false.
    Raises [Invalid_argument] when [n < 2], [slot_len < d + delta], or
    [delta] or [d] is non-positive. *)

val cycle : t -> Time.t
(** [n * slot_len]: the length of one cycle of the slotted time base. *)

val fd_timeout : t -> Time.t
(** [2 * d]: the failure detector's surveillance deadline increment.
    The failure detector scales it by the local-health multiplier when
    [adaptive_suspicion] is set. *)

val alive_window : t -> Time.t
(** [n * slot_len]: a process is on the alive-list when heard from
    within the last N slots (Section 4.2). *)

val late_bound : t -> Time.t
(** [delta + epsilon + sigma]: a control message whose apparent one-way
    delay on the synchronized time base exceeds this is late and must
    be rejected (fail-awareness). *)

val majority : t -> int
(** Smallest cardinality that is a majority of [n]. *)

val pp : t Fmt.t
