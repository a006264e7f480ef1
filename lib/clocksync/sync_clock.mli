(** Fail-aware synchronized virtual clock.

    A process's synchronized clock is its hardware clock corrected by an
    offset towards a fixed {e reference process} (the lowest process
    id, by convention). The owner reports itself synchronized iff its
    freshest reading of the reference clock, with the error bound grown
    by drift since the reading, is within [epsilon / 2] — which yields
    the interface the membership protocol consumes (paper, Sections
    2-3): the deviation between any two clocks that both claim
    synchronization is at most [epsilon], and a process always {e
    knows} whether the claim holds (fail-awareness).

    The full service of [15] is master-free (internal synchronization
    with agreed failover); fixing the reference is a documented
    simplification (DESIGN.md) that preserves the interface guarantee —
    at the price of availability when the reference is unreachable.
    The reference process itself is synchronized by definition.

    This module is pure state: the distributed part (obtaining the
    readings) lives in {!Protocol}. *)

open Tasim

type params = {
  epsilon : Time.t;  (** max deviation between synchronized clocks *)
  drift_bound : float;  (** rho: hardware clock drift bound *)
  validity : Time.t;
      (** a reading older than this is discarded outright *)
  n : int;  (** team size *)
}

type t

val create : params -> self:Proc_id.t -> t
val params : t -> params

val note_reading : t -> of_:Proc_id.t -> Reading.t -> t
(** Record a (successful, accepted) reading of a remote clock. Keeps
    the reading with the smallest current error per process. *)

val drop_stale : t -> now_local:Time.t -> t
(** Discard readings older than [validity]. *)

type status = {
  synchronized : bool;
  reference : Proc_id.t;  (** the fixed reference process *)
  bound : Time.t;  (** current error bound w.r.t. the reference *)
}

val status : t -> now_local:Time.t -> status

val reading : t -> now_local:Time.t -> Time.t option
(** The synchronized clock value at local (hardware) clock time
    [now_local]; [None] when not synchronized. *)

val local_of_sync : t -> sync:Time.t -> now_local:Time.t -> Time.t option
(** Translate a synchronized-clock target back to local hardware clock
    time (for arming timers); [None] when not synchronized. *)
