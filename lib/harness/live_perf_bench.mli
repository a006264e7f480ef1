(** M4 macrobenchmark: the live data plane at hardware speed.

    Two experiments over real UDP sockets on localhost:

    {b Flood} — raw {!Runtime.Transport} throughput: one sender
    broadcasts minimal frames to [n-1] receivers as fast as the data
    plane moves them. Run once batched ([sendmmsg]/[recvmmsg]) and
    once on the portable per-datagram fallback, the pair measures the
    syscall-batching speedup and the syscalls-per-frame ratio (from
    the [live:syscall:*] counters).

    {b Cluster} — the full Figure 1 stack under load: [shards]
    independent [n]-member groups, one per OCaml domain
    ({!Runtime.Cluster.Sharded}), each forming a view and then
    sustaining a steady stream of totally-ordered updates. Records
    formation, deliveries, aggregate frames/s across shards, the heap
    each shard's members hold after the window, and — the run being
    faultless — every post-formation view change as a false
    suspicion. Submit→deliver latency of the live group is measured
    once, by the benchmark's [steady] workload ([twbench/]), not
    here. *)

type flood_result = {
  fl_n : int;
  fl_batched : bool;
  fl_wall_seconds : float;
  fl_sent : int;
  fl_received : int;
  fl_frames_per_sec : float;  (** received frames per wall second *)
  fl_syscalls : int;  (** send + receive syscalls, both primitives *)
  fl_syscalls_per_frame : float;  (** syscalls / (sent + received) *)
}

val flood :
  ?n:int ->
  ?seconds:float ->
  ?base_port:int ->
  ?batching:bool ->
  unit ->
  flood_result
(** Defaults: [n = 4] transports on [base_port = 49400], one second.
    [batching] as {!Runtime.Transport.create}. *)

type cluster_result = {
  cl_n : int;  (** members per shard *)
  cl_shards : int;
  cl_batched : bool;
  cl_formed : bool;  (** every shard agreed on its full view *)
  cl_wall_seconds : float;  (** slowest shard's steady-state window *)
  cl_frames : int;  (** datagrams received across shards in the window *)
  cl_frames_per_sec : float;  (** aggregate across shards *)
  cl_submits : int;
  cl_deliveries : int;  (** deliveries across all members and shards *)
  cl_false_suspicions : int;
      (** distinct views installed after formation, one per view and
          not per installing member (the run is faultless, so any
          change is a false suspicion) *)
  cl_timer_fires : int;
      (** timers that reached [on_timer] in the window, across members
          and shards ([live:sched:timer-fires]) *)
  cl_timer_late_us : float;
      (** mean lateness of those fires: clock at [on_timer] minus the
          timer's due time, in µs ([live:sched:timer-late-us] over
          [cl_timer_fires]); the dispatcher and timer wheel's share of
          every timed step *)
  cl_node_words : int list;
      (** per shard, in shard order: the heap words reachable from the
          shard's node list after its window ([Obj.reachable_words]) —
          every member's protocol state, timers, stats and transport,
          but not the domain's shared receive ring *)
}

val cluster :
  ?n:int ->
  ?shards:int ->
  ?seconds:float ->
  ?base_port:int ->
  ?batching:bool ->
  unit ->
  cluster_result
(** Defaults: [n = 5] members per shard, [shards = 1], two seconds of
    steady state, ports from [base_port = 49600] (each shard strides
    64 ports up). A shard that fails to form within 30 s reports
    [cl_formed = false] with empty measurements rather than raising. *)
