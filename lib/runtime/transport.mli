(** Nonblocking UDP transport: one socket per process, a peer address
    book mapping process ids to localhost ports.

    The transport is deliberately dumb — it moves frames, nothing
    more. Loss, reordering and duplication are the datagram service's
    prerogative (the protocol stack is built for exactly that), so
    every send-side failure (would-block, oversized frame, transient
    ICMP-driven errors) is counted and dropped, never retried or
    surfaced as an exception. Decode failures on receive are counted
    per {!Codec.error} kind in the stats and the frame discarded:
    fail-aware rejection of garbage from the network.

    The data plane is allocation-free per datagram and batched per
    syscall: sends encode through one long-lived writer at the tail of
    a reused batch buffer and accumulate until {!flush} (called by the
    node driver at the end of every dispatch pass, and internally on
    buffer pressure), which moves the whole batch with one [sendmmsg];
    {!drain} fills a receive ring with one [recvmmsg] per up-to-16
    datagrams and decodes frames in place. The ring (16 slots of 64 KiB,
    so no datagram is truncated) and the fallback's one-datagram buffer
    belong to the domain, not to the transport: every transport a domain
    drains shares them, so a process's receive buffers do not grow with
    the number of members it hosts, and each {!Cluster.Sharded} domain
    has its own. The price is a contract on {!drain}: a handler must not
    drain a transport. Where the batched syscalls
    are unavailable (non-Linux, runtime [ENOSYS], or [TW_MMSG=0] /
    [~batching:false] forcing the portable path) the same batch is
    walked with a [sendto]/[recvfrom] loop — identical frame bytes and
    counters, one syscall per datagram. Syscalls are counted under
    [live:syscall:sendto|recvfrom|sendmmsg|recvmmsg].

    Batched frames count as sent when committed to the batch (the kind
    is known there); a flush-time kernel drop still bumps
    [live:drop:send] — the same dropped-not-retried contract as
    before, observed one flush later.

    For live chaos scenarios the transport carries a loopback
    {e impairment shim} ({!impair}): per-destination outbound
    delay/jitter/drop rules in the style of the simulator's
    {!Tasim.Net.set_link}, so the topology scenarios have a live
    reproduction path. Delayed frames are copied into a held queue and
    transmitted by {!pump} once due; {!next_release} feeds the poll
    loop's sleep. With no rules installed the data plane is
    untouched. *)

open Tasim

type 'm t

val create :
  encode_to:(sender:Proc_id.t -> 'm -> Wire.writer -> int) ->
  decode:
    (Bytes.t -> pos:int -> len:int -> (Proc_id.t * 'm, Codec.error) result) ->
  ?kind_of:('m -> string) ->
  ?batching:bool ->
  self:Proc_id.t ->
  n:int ->
  port_of:(Proc_id.t -> int) ->
  stats:Stats.t ->
  unit ->
  'm t
(** Open and bind a nonblocking UDP socket on
    [127.0.0.1:port_of self]. Raises [Unix.Unix_error] when the port
    is taken. [stats] receives [live:sent]/[live:recv] totals,
    [live:drop:*] counters, and — keyed by [kind_of msg], default
    ["msg"] — per-kind [live:sent:<kind>]/[live:sent-bytes:<kind>]
    and [live:recv:<kind>]/[live:recv-bytes:<kind>] counters. All are
    interned once, so counting costs no allocation per datagram.
    [batching] selects the mmsg syscalls vs the portable loop;
    default {!Mmsg.default_enabled} (on where supported, off under
    [TW_MMSG=0]). [~batching:true] is still clamped to platform
    support. *)

val self : 'm t -> Proc_id.t
val n : 'm t -> int
val fd : 'm t -> Unix.file_descr
(** For [select]/poll loops. *)

val send : 'm t -> dst:Proc_id.t -> 'm -> unit
val broadcast : 'm t -> 'm -> unit
(** To every team member except [self]: encoded once, then one batch
    entry per peer reading the same bytes (an impaired peer's held
    frame is its own copy). A batch without room for every peer's
    entry is flushed first. *)

val flush : 'm t -> unit
(** Transmit the accumulated outbound batch. The node driver calls
    this at the end of every dispatch pass (and after init effects);
    callers driving a transport directly must flush before expecting
    frames on the wire. No-op when the batch is empty; pending frames
    are discarded (not sent) if the transport is closed first. *)

val batched : 'm t -> bool
(** Whether flushes currently use the batched syscalls ([false] on
    the portable fallback path, including after a runtime [ENOSYS]
    downgrade). *)

val drain : ?budget:int -> 'm t -> handler:(src:Proc_id.t -> 'm -> unit) -> int
(** Receive and decode datagrams queued on the socket until it would
    block, calling [handler] per well-formed frame; returns the number
    handled. [budget] bounds the datagrams consumed in one call
    (default: unbounded) so one drain cannot starve timers when a peer
    floods the socket. Frames from out-of-range senders or that fail
    to decode are dropped (and counted). Never blocks.

    Frames are decoded straight out of the domain's shared receive
    buffers, and the next datagram overwrites them, so [handler] must
    copy out what it keeps (the codec does) and must not drain any
    transport: a drain from inside a handler raises [Invalid_argument]
    rather than decode frames the nested drain has overwritten. An
    exception from [handler] propagates; the frames received with it
    but not yet handled are lost, as if dropped by the network. *)

val close : 'm t -> unit
(** Close the socket. Further sends/drains are no-ops; held impaired
    frames are discarded. *)

val is_closed : 'm t -> bool

(** {1 Loopback impairment shim} *)

val impair :
  'm t ->
  dst:Proc_id.t ->
  ?delay:Time.t ->
  ?jitter:Time.t ->
  ?drop:float ->
  now:(unit -> Time.t) ->
  unit ->
  unit
(** Impair the outbound link to [dst]: each frame is dropped with
    probability [drop] (default 0), otherwise held for
    [delay + uniform(0, jitter)] (defaults 0) and transmitted by the
    next {!pump} whose [now] has passed the due time. [now] is the
    time source used to stamp due times — pass the same monotonic
    clock the poll loop pumps with. A zero-delay rule sends inline.
    Held frames count as sent (totals and per-kind) when enqueued;
    shim activity is counted under [live:impair:drop] /
    [live:impair:released]. At most {!held_cap} frames are held at
    once; a frame that finds the queue full is dropped, not sent, and
    counted under [live:impair:overflow]. Re-impairing a destination replaces its
    rule. Randomness is drawn from a per-process deterministic stream.
    Raises [Invalid_argument] on a negative delay/jitter or a [drop]
    outside [0,1]. *)

val clear_impair : 'm t -> dst:Proc_id.t -> unit
(** Remove the rule toward one destination; frames already held keep
    their due times. *)

val clear_impairments : 'm t -> unit
(** Remove every rule and discard held frames (counted as dropped) —
    tearing the impaired link down loses what was inside it, exactly
    like real UDP. *)

val impaired : 'm t -> int
(** Number of destinations currently carrying a rule. *)

val held_cap : int
(** The hold queue's bound, in frames, across all destinations. *)

val held : 'm t -> int
(** Frames currently held by the shim, at most {!held_cap}. *)

val pump : 'm t -> now:Time.t -> int
(** Transmit every held frame whose due time is at or before [now],
    oldest due first; returns the number released. Cheap no-op when
    nothing is held. *)

val next_release : 'm t -> Time.t option
(** Earliest held-frame due time, for the poll loop's sleep. *)
