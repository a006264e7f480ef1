(** Typed fault plans.

    A fault plan is the unit of work of the chaos harness: a list of
    timed fault-injection ops, generated from a single {!Tasim.Rng}
    seed, executed against an [n]-member group by {!Runner}. Op times
    are relative to the end of initial group formation; windowed ops
    carry an explicit close time. Every random choice a plan needs at
    execution time (the omission-burst coin flips) is pinned by a seed
    stored {e in the op}, so removing other ops during shrinking never
    changes its behaviour.

    Plans serialize to a small JSON artifact ([{version; seed; n;
    ops}]) via {!to_json}/{!of_json}; the seed doubles as the engine
    seed of the run, so artifact + [chaos --replay] reproduces a
    failure exactly. *)

open Tasim

type op =
  | Crash of { at : Time.t; proc : int }
  | Recover of { at : Time.t; proc : int }
  | Partition of { at : Time.t; block : int list }
      (** split the team into [block] and its complement *)
  | Heal of { at : Time.t }
  | Omission_burst of {
      at : Time.t;
      until : Time.t;
      prob : float;
      seed : int;  (** pins the per-datagram coin flips of this burst *)
    }
  | Filter_window of {
      at : Time.t;
      until : Time.t;
      kind : string;  (** a {!Timewheel.Control_msg.kind} string *)
      src : int option;
      dst : int option;
    }
  | Slow_window of {
      at : Time.t;
      until : Time.t;
      prob : float;
      delay_max : Time.t;
    }
  | Slow_member of {
      at : Time.t;
      until : Time.t;
      proc : int;
      prob : float;
      delay_max : Time.t;
    }
      (** a single sick machine: only [proc]'s dispatches suffer the
          extra delay, everyone else stays timely (the scenario behind
          adaptive suspicion — not in the random mix, scenario-only) *)
  | Storage_fault of {
      at : Time.t;
      until : Time.t;
      proc : int option;  (** [None] = every process's slot *)
      fault : Storage.Store.fault;
    }
      (** stable-storage writes inside the window are torn, lose
          their flush or fail with [EIO] (see {!Storage.Store.fault});
          the random mix draws only the first two *)
  | Link_window of {
      at : Time.t;
      until : Time.t;
      src : int option;  (** [None] = every source *)
      dst : int option;  (** [None] = every destination *)
      delay_min : Time.t;
      delay_max : Time.t;
      omission_prob : float;
      late_prob : float;
      late_delay_max : Time.t;
    }
      (** degrade the timeliness of the matching directed links for the
          window via {!Tasim.Net.set_link} — the timeliness-graph op
          behind the topology scenarios (asymmetric slow links,
          cross-datacenter latency). Parameters must satisfy
          {!Tasim.Net.validate_config} against the run's global config.
          Not in the random mix, scenario-only. *)

type t = { seed : int; n : int; ops : op list }

val generate : seed:int -> n:int -> ops:int -> t
(** Deterministic: same [seed]/[n]/[ops] always yields the same plan.
    Op times fall within {!horizon}; crash/recover ops dominate the
    mix. *)

val horizon : Time.t
(** Upper bound on op start times ([4s] past formation). *)

val end_time : t -> Time.t
(** Latest op time (window closes included); [Time.zero] when empty. *)

val op_time : op -> Time.t

val shrink_op : op -> op list
(** Strictly-smaller variants of one op (halved window durations,
    probabilities, delays — each down to a floor; instantaneous ops
    have none), for {!Shrink.shrink_params}. *)

val pp_op : op Fmt.t
val pp : t Fmt.t

val to_json : t -> Harness.Bench_json.t
val of_json : Harness.Bench_json.t -> (t, string) result
val save : string -> t -> unit
val load : string -> (t, string) result
