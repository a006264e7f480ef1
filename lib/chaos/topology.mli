(** Topology-shaped chaos: scenario families over the timeliness graph.

    Where {!Fuzz} draws faults uniformly per-message, real deployments
    fail along structure — some {e links} are slow, some sites are far
    away, whole racks leave at once. Each scenario here shapes its
    faults by topology, built on {!Plan.Link_window} (the per-link
    overrides of {!Tasim.Net.set_link}):

    - ["asym-slow-link"] (n=5): one direction of one link at the delta
      edge with lateness and light loss, reverse direction timely, plus
      a crash whose exclusion must cross the slow link;
    - ["multi-dc"] (n=6): three 2-member datacenters, every cross-DC
      directed link carrying correlated latency/lateness, one DC
      partitioned off for 800ms mid-run;
    - ["drift-storm"] (n=5): every link near delta with late delays
      straddling [late_bound = delta + epsilon + sigma], plus slow
      scheduling — the fail-aware rejection path under maximum stress;
    - ["churn-64"] (n=64): sustained overlapping leave/rejoin churn
      under adaptive suspicion.

    A (scenario, seed) pair is fully deterministic: the seed picks the
    scenario's shape (which link, which DC, which churners) and doubles
    as the engine seed. {!sweep} runs a scenario across seeds derived
    from one root ({!Fuzz}-style) and aggregates the convergence-time
    distributions that become the [topology_runs] series of
    [BENCH_engine.json]. *)

open Tasim
open Timewheel

type scenario = {
  name : string;
  n : int;
  params : Params.t option;
      (** protocol-parameter override ([churn-64] turns on adaptive
          suspicion); [None] = defaults *)
  describe : string;
  plan : seed:int -> Plan.t;
      (** deterministic in [seed]; the plan's seed is the run's engine
          seed, so a saved plan replays exactly (under [params]) *)
}

val scenarios : scenario list
(** The catalogue, in the order above. *)

val find : string -> scenario option

val run_one : scenario -> seed:int -> Runner.outcome

val minimize : scenario -> Plan.t -> Plan.t
(** {!Runner.minimize} under the scenario's params. *)

(** {1 Sweeps and convergence distributions} *)

type failure = { seed : int; plan : Plan.t; outcome : Runner.outcome }

type report = {
  scenario : scenario;
  root_seed : int;
  runs : int;
  failures : failure list;
  formation : Stats.summary option;
      (** formation times of the clean runs, in seconds; [None] when
          none *)
  reconvergence : Stats.summary option;
      (** post-fault heal-to-agreed-full-view times of the clean runs
          (cycle-granular, see {!Runner.outcome}) *)
}

val sweep : ?runs:int -> seed:int -> scenario -> report
(** Run [runs] seeds (default 5) derived from the root [seed]. *)

val ok : report -> bool

val seconds : Time.t list -> Stats.summary option
(** The summary of a list of spans, in seconds; [None] when empty.
    Shared with the live chaos driver's recovery-time series. *)

val pp_failure : failure Fmt.t
val pp_report : report Fmt.t
