(** M3 macrobenchmark: membership at N=64/256.

    Forms an [n]-member group (membership and broadcast over
    {!Timewheel.Service.Oracle} clocks, so no clock-sync protocol runs)
    and runs [seconds] of faultless steady state. The quantity of
    interest is the per-member receive rate.
    Every decision reaches every member directly, but only one decision
    is in flight at a time: the decider role rotates one member per
    decision. Each member therefore receives about one decision per
    rotation step (D plus one network delay), and its receive rate
    stays flat as [n] grows; only the decider's send burst of [n - 1]
    frames grows with [n].

    The run is faultless, so every suspicion observed is a false
    positive and is counted as such.

    Every figure but the two wall times and [events_per_sec] is fixed
    by the seed, so one run per [n] is enough. *)

type result = {
  n : int;
  formed : bool;  (** the full [n]-member view was agreed *)
  form_sim_seconds : float;
  form_wall_seconds : float;
  sim_seconds : float;  (** steady-state window, simulated *)
  wall_seconds : float;
  receives : int;  (** datagrams delivered during the window *)
  receives_per_member_per_sec : float;
      (** [receives / n / sim_seconds] — the flatness probe *)
  false_suspicions : int;
      (** suspicion observations over the whole run (faultless, so all
          false) *)
  events : int;  (** sends + deliveries in the window *)
  events_per_sec : float;
  minor_words_per_event : float;
      (** {!Gc.minor_words} over the window per event: the protocol's
          allocation at a large group *)
}

val run : ?n:int -> ?seconds:int -> ?seed:int -> unit -> result
(** Defaults: [n = 256], [seconds = 3], [seed = 42]. When the group
    fails to form within {!Run.settle}'s bound, returns with
    [formed = false] instead of raising. *)
