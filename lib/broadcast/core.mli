(** The timewheel broadcast transitions, shared by every automaton that
    runs the broadcast.

    A core is one process's broadcast state: its oal view, its proposal
    buffers and its proposal counter. Each function is one transition
    of the paper's Section 2 mechanism and returns the new core; the
    caller turns the results into messages. {!Protocol} runs the
    broadcast alone over a static group; [Timewheel.Member] runs it
    under the membership protocol, which decides what oal to adopt and
    when a member may deliver. *)

open Tasim

type 'u t
(** A process's broadcast state. The oal is held as a list shared with
    the decider plus this process's own acknowledgements beside it (a
    set of ordinals), so receiving a decision rebuilds no entry just to
    write this process's acks into it. {!oal} materialises the explicit
    list; nothing outside reads the shared list without its overlay. *)

val create : self:Proc_id.t -> n:int -> 'u t
(** Empty oal and buffers, first proposal [seq] 0. *)

val self : 'u t -> Proc_id.t
val n : 'u t -> int
val buffers : 'u t -> 'u Buffers.t
val set_buffers : 'u t -> 'u Buffers.t -> 'u t

val oal : 'u t -> Oal.t
(** The explicit oal: the shared list with this process's own acks
    written in, in one walk — the list as it leaves the process (its
    decision, its views, its state transfer). The shared list itself
    when there is no own ack to add. *)

val set_oal : 'u t -> Oal.t -> 'u t
(** Replace the oal wholesale, own acks included: [oal (set_oal t l)]
    is [l]. *)

val latest_membership : 'u t -> (int * Proc_set.t * Group_id.t) option
(** {!Oal.latest_membership} of the oal, without materialising it. *)

val submit :
  'u t -> clock:Time.t -> semantics:Semantics.t -> 'u -> 'u t * 'u Proposal.t
(** Make this process's next proposal, stamped [clock] and carrying the
    highest delivered ordinal as its hdo, store it and ack it. The
    caller broadcasts the returned proposal. *)

val receive : 'u t -> now:Time.t -> 'u Proposal.t -> 'u t option
(** Store and ack a received proposal. [None] refuses it: an id marked
    undeliverable, an id from a blocked origin, or a duplicate. *)

val retransmits : 'u t -> Proposal.id list -> 'u Proposal.t list
(** The buffered proposals among the ids a NACK asks for. *)

val view : 'u t -> 'u t
(** Add this process's ack to every descriptor it has received (a
    membership descriptor with the list, an update with its proposal),
    as the paper's member does to the explicit oal, kept in the
    overlay. *)

val adopt : 'u t -> Oal.t -> 'u t
(** Replace the local view by [oal] (a later incarnation's list, or a
    merge the caller made of explicit lists), own acks cleared, then ack
    it ({!view}) and date the updates delivered unordered from it
    ({!Buffers.learn_ordinals}). *)

val merge : 'u t -> incoming:Oal.t -> 'u t
(** {!adopt} of the local view merged with [incoming]
    ({!Oal.merge}), own acks kept: the explicit result equals
    [adopt t (Oal.merge ~local:(oal t) ~incoming)]. The merge runs on
    the shared list, which an incoming decision usually covers, so the
    result is the incoming list itself. *)

val order_pending : 'u t -> now:Time.t -> 'u t
(** Append a descriptor, acked by this process alone, for every
    buffered proposal that has none and is not marked undeliverable.
    It does not date an update this process delivered unordered: the
    appender learns that ordinal from the next oal it adopts, like
    every other member. *)

val unordered : 'u t -> Proposal.id -> now:Time.t -> bool
(** Does the oal lack a descriptor for the update, which is not marked
    undeliverable? {!order_pending} appends exactly the buffered
    proposals for which this holds. One index lookup. *)

val holds_unordered : 'u t -> now:Time.t -> bool
(** Does some buffered proposal satisfy {!unordered}? Stops at the first
    one. *)

val refresh : 'u t -> group:Proc_set.t -> 'u t
(** Mark the entries acked by all of [group] stable. *)

val purge : 'u t -> 'u t
(** Purge the stable, delivered head of the oal, then drop the
    retained payloads below the new purge frontier. *)

val deliver :
  'u t -> now:Time.t -> timed_delay:Time.t -> 'u t * 'u Delivery.delivery list
(** Every delivery the conditions allow at synchronized time [now]
    ({!Delivery.step}), in delivery order. *)

val recover : 'u t -> group:Proc_set.t -> (Proc_id.t * Proposal.id list) list
(** NACKs for the updates the oal orders but this process never
    received, batched per holder in first-asked order. Each update is
    asked of the ring-wise next acked holder inside [group], or of any
    acked holder when no group member acked it. *)

val dpd : 'u t -> Oal.update_info list
(** Descriptors of the delivered updates with no ordinal yet, in
    ascending id order. *)
