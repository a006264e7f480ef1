(** Measurement utilities: named counters and sample series.

    Experiments count messages by kind and collect latency samples;
    this module provides both, plus summary statistics (mean, median,
    percentiles) used by the table printers in the harness. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
val incr_by : t -> string -> int -> unit
val count : t -> string -> int
(** 0 when the counter was never incremented. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Interned counters}

    Hot paths that bump the same counter millions of times per run
    should not pay a string build plus hashtable lookup per event. An
    interned {!counter} is a handle to the underlying cell: obtain it
    once (a normal lookup, creating the counter at 0 if absent) and
    [bump] it for free afterwards. The handle aliases the cell the
    string API updates, so [incr]/[count]/[counters]/[merge] and
    interned bumps always observe the same totals. Handles stay valid
    for the lifetime of [t], including across [merge]s into or out of
    it. The string API remains for cold paths and reporting.

    All operations are domain-safe: interned bumps are atomic (so
    concurrent bumps from any number of domains lose no counts) and
    table accesses are serialized internally. Single-domain totals are
    bit-identical to the unsynchronized implementation. *)

type counter

val counter : t -> string -> counter
(** Intern [name], creating it with count 0 when absent (it then
    already appears in {!counters}). *)

val bump : counter -> unit
val bump_by : counter -> int -> unit
val counter_value : counter -> int

(** {1 Sample series} *)

val record : t -> string -> float -> unit
val record_time : t -> string -> Time.t -> unit
(** Records the span in microseconds. *)

val samples : t -> string -> float array
(** Samples in insertion order; empty when none recorded. *)

(** {1 Summaries} *)

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  stddev : float;
}

val summarize : float array -> summary option
(** [None] on an empty array. Percentiles interpolate linearly between
    the two nearest ranks. *)

val summary_of : t -> string -> summary option

val pp_summary : summary Fmt.t
(** [n=.. min=.. p50=.. p90=.. max=.. mean=..], in the samples' unit. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src]'s counters and samples into [dst]. *)
