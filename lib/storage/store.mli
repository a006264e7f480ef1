(** Per-process stable storage, for the simulator and the live runtime.

    One store holds one small record per process — for the membership
    protocol, the {!Timewheel.Member.persistent} view record — with the
    semantics of a write-ahead journal updated by atomic rename. Two
    backends share everything but where the bytes live:

    - {!in_memory} — survives the crash and recovery of a process
      within one OS process: the simulator's store (wired in by
      [Service]), and the in-process multi-instance mode of the live
      runtime;
    - {!on_disk} — one small file per process, written with full
      durability (write to [.tmp], fsync, atomic rename, fsync of the
      directory), surviving OS process restarts.

    {2 Durability contract}

    - {b atomicity}: {!restore} returns a complete record or [None],
      never a mix of two writes. A torn write loses the {e new}
      version; the previous durable record survives.
    - {b durability}: a durable record survives crash and recovery
      ({!note_crash} + {!restore}), unlike every other process
      resource (automaton state, timers).
    - {!persist} never raises: a failed write attempt is retried up to
      {!persist_attempts} times, then the store {e degrades} — the
      process keeps running on its in-memory state, the failure is
      counted ([live:store:persist-failed]) and the previous durable
      record survives for the next restart.
    - {!restore} is total. On disk, a missing file, a directory
      squatting on the record path, a permission error or a record the
      decoder rejects all restore as [None] (counted), never an
      exception; a leftover [.tmp] from a crashed writer is discarded.

    {2 Faults}

    {!set_fault} installs one {!fault} per process or store-wide (the
    [Chaos.Plan] storage-fault op in the simulator, the live chaos
    driver's storage scenario): [Torn_write] tears the write (on disk,
    half the record lands in a [.tmp] file that is left behind);
    [Lost_flush] completes the write visibly but never flushes it —
    this incarnation reads it back, {!note_crash} reverts to the last
    durable record; [Io_error] fails every write attempt with [EIO],
    exercising the bounded-retry-then-degrade path. Every outcome is
    counted under [live:store:*] in {!stats}. *)

open Tasim

type fault =
  | Torn_write  (** the write tears: the previous record survives *)
  | Lost_flush  (** visible write, flush dropped; see {!note_crash} *)
  | Io_error  (** every write attempt fails with [EIO] *)

val fault_to_string : fault -> string
(** ["torn-write"], ["lost-flush"], ["io-error"]: the names used by
    {!pp_fault}, the [live:store:fault:*] counters and plan
    artifacts. *)

val fault_of_string : string -> fault option
(** Inverse of {!fault_to_string}; [None] on any other name. *)

val pp_fault : fault Fmt.t

val persist_attempts : int
(** Write attempts per {!persist} before degrading (3). *)

type 'r t

val in_memory : ?stats:Stats.t -> unit -> 'r t
(** An empty store; a process's slot is created on first use. *)

val on_disk :
  ?stats:Stats.t ->
  dir:string ->
  encode:('r -> string) ->
  decode:(string -> 'r option) ->
  unit ->
  'r t
(** Records live in [dir] (created with its parents on first persist)
    as the bytes [encode] returns. [decode] must reject every
    corruption with [None]: a rejected file restores as [None] — an
    amnesiac start, which the epoch machinery already tolerates. *)

val stats : 'r t -> Stats.t
(** The store's [live:store:*] counters: [persist], [persist-failed],
    [retry], [fault:torn-write], [fault:lost-flush], [fault:io-error],
    [restore], [restore-corrupt], [restore-missing],
    [tmp-discarded]. *)

val set_fault : 'r t -> ?proc:Proc_id.t -> fault option -> unit
(** Install (or clear, with [None]) a fault for one process's writes,
    or — without [?proc] — for every process's, clearing per-process
    overrides. *)

val persist : 'r t -> self:Proc_id.t -> 'r -> unit
(** Replace [self]'s record, subject to its active fault. *)

val restore : 'r t -> self:Proc_id.t -> 'r option
(** What the running process reads back: its latest visible write
    (including a lost-flush one), else the durable record. *)

val note_crash : 'r t -> self:Proc_id.t -> unit
(** [self]'s machine crashed: discard whatever it wrote but never
    flushed (lost-flush writes), reverting to the last durable record
    — or to no record, when nothing was durable. Durable records are
    untouched; that is the point of stable storage. *)

val record_path : 'r t -> self:Proc_id.t -> string option
(** The on-disk record file for [self]; [None] for the in-memory
    backend. For tests and the live chaos driver's direct on-disk
    corruption. *)
