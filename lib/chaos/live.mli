(** Live chaos: seeded fault scenarios against the real runtime.

    Where {!Runner} perturbs the simulator, this driver crashes the
    real thing: an in-process {!Runtime.Cluster} of real-UDP
    {!Runtime.Live} nodes on localhost, perturbed with the live
    counterparts of the simulator's faults — {!Runtime.Node.kill} /
    [restart] churn, {!Runtime.Transport.impair} windows,
    {!Storage.Store.set_fault} storage-fault windows, and
    {!Runtime.Node.pause} (the SIGSTOP analog). Between and after the
    perturbations it checks the same safety properties as the sim
    runner:

    - {!Timewheel.Invariant.check_all} over the live member states;
    - the {e epoch ratchet}: every member's installed group ids are
      strictly increasing (lexicographic), across restarts included;
    - {e no false suspicions}: no view installed after formation
      excludes a member that was never killed or paused;
    - {e convergence}: every perturbation phase re-reaches an agreed
      full (or survivor) view within a wall-clock bound, and broadcasts
      submitted after each phase deliver group-wide.

    A (scenario, seed) pair is deterministic in the driver's choices
    (victims, faults, downtimes); wall-clock scheduling of course is
    not, which is why the checks are phase-convergence-shaped rather
    than sim-trace-shaped. {!sweep} aggregates kill->exclusion and
    restart->rejoin recovery-time distributions, which become the
    [live_chaos_runs] series of [BENCH_engine.json]. *)

open Tasim

type outcome = {
  scenario : string;
  seed : int;
  violations : Runner.violation list;  (** empty iff the run is clean *)
  formed_in : Time.t;  (** start -> first agreed full view *)
  exclusions : Time.t list;
      (** kill (or pause) -> agreed survivor view, per fault *)
  rejoins : Time.t list;
      (** restart (or resume) -> agreed full view, per recovery *)
  views : int;  (** views installed across the run *)
  persist_failures : int;  (** [live:store:persist-failed] total *)
  corrupt_restores : int;  (** [live:store:restore-corrupt] total *)
}

val ok : outcome -> bool
val pp_outcome : outcome Fmt.t

type scenario = {
  name : string;
  n : int;
  describe : string;
  run : seed:int -> base_port:int -> outcome;
}

(** The catalogue:

    - ["kill-restart-churn"] (n=5): three kill/restart cycles with
      seed-chosen victims (biased toward the decider), a group-wide
      broadcast after each rejoin;
    - ["storage-chaos"] (n=5): an on-disk store under the full
      {!Storage.Store.fault} palette — transient [EIO] windows
      (bounded-retry-then-degrade, node keeps running), torn writes
      (leftover [.tmp] tolerated on restart), lost-flush windows
      closed by a machine-crash ({!Storage.Store.note_crash})
      restart, and a direct on-disk bit flip whose restart must reject
      the record by checksum and rejoin at a strictly later group id;
    - ["impair-churn"] (n=5): one directed link impaired (PR 7's
      established-tolerable delay/jitter/loss) with a kill/restart
      ridden out under the impairment;
    - ["paused-member"] (n=5, [d] widened to 150 ms): a short pause
      (well under the suspicion deadline) must cause no exclusion; a
      long pause must be excluded and absorbed back on resume. *)
val scenarios : scenario list

val find : string -> scenario option

val default_base_port : int
(** 48100 — clear of the [timewheel_live] demo/member default and the
    live smoke tests' ports. *)

val run_one : ?base_port:int -> seed:int -> scenario -> outcome

(** {1 Sweeps and recovery-time distributions} *)

type report = {
  scenario : scenario;
  root_seed : int;
  runs : int;
  outcomes : outcome list;  (** in run order *)
  exclusion : Stats.summary option;
      (** fault -> agreed survivor view in seconds, clean runs pooled *)
  rejoin : Stats.summary option;
      (** recovery -> agreed full view in seconds, clean runs pooled *)
}

val sweep : ?runs:int -> ?base_port:int -> seed:int -> scenario -> report
(** Run [runs] seeds (default 3) derived from the root [seed], each
    run on its own port stride, nodes torn down between runs. *)

val report_ok : report -> bool
val pp_report : report Fmt.t
