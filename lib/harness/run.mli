(** Shared experiment plumbing: building services, counter windows and
    post-hoc trace analysis. *)

open Tasim
open Timewheel

type svc = (int, int list) Service.t
(** The experiment payload is an [int]; the replicated application state
    is the list of applied updates (newest first), which doubles as a
    consistency probe. *)

val service :
  ?seed:int ->
  ?omission:float ->
  ?late:float ->
  ?slow:float ->
  ?params:Timewheel.Params.t ->
  n:int ->
  unit ->
  svc
(** [late] is the probability of a message performance failure (delay
    beyond delta); [slow] the probability of a scheduling performance
    failure (reaction beyond sigma). Without [params] the members run
    [Params.make ~pacing:Paced ~n ()], the paper's paced rotation. *)

val settle : svc -> svc
(** Run until the initial group has formed plus one cycle of margin;
    raises [Failure] when it has not formed within 20 cycles. *)

val counters_snapshot : svc -> (string * int) list
val counters_diff :
  before:(string * int) list -> after:(string * int) list -> (string * int) list

val sum_prefixed : (string * int) list -> prefixes:string list -> int
(** Sum of the counters whose name starts with one of the given
    prefixes; each counter is counted once. *)

val sent_matching : (string * int) list -> prefixes:string list -> int
(** Sum of ["sent:<kind>"] counters whose kind has one of the given
    prefixes. *)

(** {1 View-change measurement} *)

type view_change = {
  victim_gone : Time.t option;
      (** earliest time every surviving member had installed a view
          excluding the victims *)
  suspicion : Time.t option;  (** first suspicion observation *)
  views : int;  (** view installations after the fault *)
}

type watcher

val watch_views : svc -> watcher
(** Install the probes [measure_exclusion] consumes. Call before
    running. *)

val measure_exclusion :
  watcher -> svc -> fault_at:Time.t -> victims:Proc_set.t -> view_change
(** Post-hoc: find when all up survivors agreed on a view excluding the
    victims. *)

val survivors_consistent : svc -> bool
(** All up members that have delivered anything hold prefix-consistent
    application logs (one is a prefix of the other). *)
