(** Seeded fault-plan sweeps: the chaos harness front door.

    [sweep ~seed ~plans ~n ()] derives [plans] independent fault plans
    from the single root [seed], runs each through {!Runner}, and
    delta-debugs every violating plan to a minimal counterexample. The
    whole sweep is a pure function of [(seed, plans, n, ops)] — same
    inputs, same plans, same verdicts — so a CI failure reproduces
    locally with one command, and each failure additionally carries a
    replayable plan artifact (see {!Plan.save}). *)

type failure = {
  index : int;  (** plan position within the sweep *)
  original : Plan.t;
  shrunk : Plan.t;
  outcome : Runner.outcome;  (** outcome of re-running the shrunk plan *)
}

type report = {
  seed : int;
  n : int;
  plans : int;
  ops_per_plan : int;
  views_sampled : int;  (** invariant samples across the whole sweep *)
  failures : failure list;
}

val default_ops : int
(** Ops per generated plan (8). *)

val sweep :
  ?check:Runner.check -> ?ops:int -> seed:int -> plans:int -> n:int -> unit ->
  report

val ok : report -> bool
val pp_report : report Fmt.t
