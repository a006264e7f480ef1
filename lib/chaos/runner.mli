(** Execute a fault plan against a live [n]-member group.

    The runner builds a service (engine seed = plan seed), waits for
    initial group formation, schedules every plan op through the
    engine's fault-injection hooks, and drives a light broadcast
    workload so the ordinal invariant has data to bite on. While the
    plan runs, {!Timewheel.Invariant.check_all} is sampled on {e every}
    membership observation (view installation); the first violation
    stops the run. After the last op the runner heals all faults
    (partitions, filters, slow scheduling, storage faults, crashed
    processes) and requires post-quiescence convergence: every member
    back up and one agreed full view within a bounded number of cycles,
    then one final invariant sample. There is no waiver for plans that
    crash the newest view's majority: stable storage makes recovery
    non-amnesiac, so a recovered majority always re-forms at a higher
    epoch and the stragglers rejoin. Everything is deterministic in the
    plan alone. *)

open Tasim

type violation = { at : Time.t; property : string; detail : string }

type outcome = {
  plan : Plan.t;
  violations : violation list;
      (** empty = plan survived; the run stops at the first sample that
          violates, so these all share one sample time *)
  views_sampled : int;  (** invariant samples taken (one per view) *)
  formed_in : Time.t;
      (** sim time from start to the settled initial full view *)
  reconverged_in : Time.t option;
      (** epilogue: heal-everything to agreed full view, at cycle
          granularity; [None] when the run violated (the convergence
          series only aggregates clean runs) *)
}

type check = Harness.Run.svc -> Timewheel.Invariant.violation list
(** Invariant sampler; tests substitute a deliberately broken one to
    exercise shrinking. The default checks
    {!Timewheel.Invariant.check_all}. *)

val pp_violation : violation Fmt.t

val seeds : seed:int -> count:int -> int list
(** The [count] per-run seeds of a sweep with root [seed]: run k gets
    the k-th draw of one root stream, so it is reproducible without
    running runs 0..k-1. *)

val run :
  ?params:Timewheel.Params.t ->
  ?probe:(Harness.Run.svc -> unit) ->
  ?check:check ->
  Plan.t ->
  outcome
(** [probe] is called once on the freshly built service, before
    anything runs — the place to install extra observers (the CLI's
    verbose replay uses it to print views and suspicions). [params]
    overrides the protocol parameters of the run (the churn scenario
    runs under adaptive suspicion); the default is
    [Params.make ~n ()], unchanged. *)

val ok : outcome -> bool

val minimize : ?params:Timewheel.Params.t -> ?check:check -> Plan.t -> Plan.t
(** Delta-debug a violating plan down to a 1-minimal op list (see
    {!Shrink.minimize}), then shrink the surviving ops' parameters
    (halved windows and probabilities, see {!Shrink.shrink_params} and
    {!Plan.shrink_op}); returns the plan unchanged when it does not
    violate. *)
