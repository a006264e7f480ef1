(** Baseline: all-to-all heartbeat failure detection with a
    coordinator-driven membership view change.

    This is the conventional design the timewheel protocol implicitly
    competes with on failure-free overhead (paper, claim: "this protocol
    does not cause any extra messages to be exchanged during
    failure-free periods"). Every process broadcasts a heartbeat every
    [period]; a process is suspected after [timeout] without one. The
    lowest-id unsuspected process acts as coordinator: when its alive
    set changes it runs a two-phase view change (propose to all, commit
    once a majority acknowledged).

    The point of this module is the comparison in experiments E1/E2 —
    message counts per second of failure-free operation and detection
    latency — not feature parity: it provides views only, no ordered
    broadcast. *)

open Tasim

type config = {
  n : int;
  period : Time.t;  (** heartbeat interval *)
  timeout : Time.t;  (** suspicion timeout; typically 2-3 periods *)
}

val default_config : n:int -> config

type msg =
  | Heartbeat of { ts : Time.t }
  | Propose of { view_id : int; group : Proc_set.t }
  | Ack of { view_id : int }
  | Commit of { view_id : int; group : Proc_set.t }

val kind_of_msg : msg -> string

type obs =
  | View_installed of { view_id : int; group : Proc_set.t }
  | Suspected of { suspect : Proc_id.t }

type state

val automaton : config -> (state, msg, obs) Engine.automaton
val alive_of : state -> clock:Time.t -> Proc_set.t
