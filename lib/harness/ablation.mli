(** A — Ablations of the protocol's design choices (DESIGN.md §4).

    + {b A1: the D trade-off.} D bounds both the failure-free message
      rate (one decision per D) and the detection latency (2D, spread
      over a cycle of N·D for non-decider members). Sweeping D exposes
      the knob the paper leaves to deployment.
    + {b A2: eager vs paced decisions.} A decider may hold its decision
      for the full D (paced rotation, minimal messages), send as soon
      as it takes the role (eager — the rotation spins at network
      speed), or send delta after the previous decision only while it
      holds an unordered proposal (adaptive): ordering latency against
      message cost.
    + {b A3: the single-failure fast path.} The paper's headline
      optimization is the no-decision ring. Disabling it routes every
      suspicion through the slotted reconfiguration election; the
      recovery latency gap is the value of the optimization. *)

val run : ?quick:bool -> unit -> Table.t list
