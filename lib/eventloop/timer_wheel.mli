(** Hashed timing wheel.

    The event-based implementation described in Section 5 of the paper
    must manage a large number of concurrently armed timeouts (one per
    surveilled group member, plus protocol timers) cheaply. A hashed
    timing wheel gives O(1) arming and cancellation: time advances in
    fixed-size ticks over a circular array of buckets, and a timer armed
    [d] ticks ahead lands in bucket [(current + d) mod size] with a
    remaining-rounds counter.

    The wheel is driven by logical ticks so it is usable both inside the
    deterministic simulator and in wall-clock event loops. *)

type t

type timer_id
(** Handle for cancellation. Ids are never reused by a wheel. *)

val create : ?wheel_size:int -> tick:int -> unit -> t
(** [tick] is the tick length in arbitrary time units (e.g.
    microseconds); [wheel_size] is the number of buckets (default
    256). *)

val now : t -> int
(** Current wheel time, in the same units as [tick]. *)

val schedule : t -> at:int -> (unit -> unit) -> timer_id
(** Arm a timer to fire when the wheel reaches time [at] (clamped to
    the next tick when already past). *)

val cancel : t -> timer_id -> bool
(** [true] when the timer was still pending. Cancelling an expired or
    already-cancelled timer returns [false]. The timer is purged from
    its bucket immediately, so arm/cancel/re-arm churn never
    accumulates dead entries ({!resident} stays equal to
    {!pending}). *)

val advance : t -> to_:int -> int
(** Move wheel time forward to [to_], firing every timer whose expiry
    was reached, in expiry order and, within a tick, in arming order.
    Returns the number of timers fired. Time never moves backwards,
    and no timer fires before its [at]. The wheel jumps from one due
    tick to the next, so the cost does not grow with the number of
    empty ticks crossed: a fine tick is as cheap to advance as a
    coarse one. *)

val pending : t -> int
(** Number of armed, not-yet-fired, not-cancelled timers. *)

val resident : t -> int
(** Number of timer records physically held in buckets. Equal to
    {!pending} (cancellation purges its bucket); exposed so tests can
    assert bucket load stays bounded under re-arm churn. *)

val next_expiry : t -> int option
(** Earliest pending expiry, in the same units as [tick] (the time the
    wheel must be {!advance}d to for the next timer to fire); [None]
    when nothing is pending. O(1) while the earliest timer stands; a
    fire or cancel of the earliest makes the next call O(pending). *)
