(** Per-member proposal storage.

    Each member maintains two buffers (paper, Section 2): a {e proposal
    buffer} storing received proposals and a {e proposal descriptor
    buffer} storing descriptors and ordinals — the latter is the
    member's oal view and lives in {!Oal}; this module owns the
    proposal buffer plus the local delivery and undeliverable-mark
    bookkeeping of Section 4.3.

    The delivered history is kept as {!Range_set}s: per origin, the
    delivered [seq]s, and one set of delivered ordinals. An origin that
    delivers in [seq] order costs one run however long the group runs;
    a [seq] that is never delivered (a proposal discarded as
    undeliverable) costs one more run. Nothing is forgotten, so
    duplicate suppression sees every delivered id. *)

open Tasim

type 'u t

val empty : 'u t

(** {1 Proposal buffer} *)

val store : 'u t -> 'u Proposal.t -> 'u t * bool
(** Insert a received proposal; [false] when it was a duplicate. *)

val received : 'u t -> Proposal.id -> bool
val get : 'u t -> Proposal.id -> 'u Proposal.t option
val stored : 'u t -> 'u Proposal.t list
(** Every proposal still buffered, including delivered ones retained
    for retransmission until stable. *)

val pending : 'u t -> 'u Proposal.t list
(** The stored proposals not yet delivered, in ascending id order — the
    candidates for delivery. Read from an index, so the cost does not
    grow with the retained payloads or the delivered history. *)

val remove : 'u t -> Proposal.id -> 'u t

(** {1 Delivery bookkeeping} *)

val delivered : 'u t -> Proposal.id -> bool
val note_delivered : 'u t -> Proposal.id -> ordinal:int option -> 'u t
(** Mark delivered. The payload is retained (other members may still
    need a retransmission) until {!compact} drops it. [ordinal = None]
    for updates delivered before being ordered (unordered
    semantics). *)

val note_ordinal : 'u t -> Proposal.id -> int -> 'u t
(** Record the ordinal of an already-delivered proposal once learned. *)

val learn_ordinals : 'u t -> find:(Proposal.id -> int option) -> 'u t
(** Apply {!note_ordinal} to every delivered id with no ordinal yet,
    taking the ordinal from [find]. With [find] answering the lowest
    ordinal whose oal entry carries the id ({!Oal.first_update_ordinal}),
    this equals folding {!note_ordinal} over the oal's update entries in
    ordinal order, at a cost set by the undated ids instead of the oal
    length times the delivered history. *)

val delivered_ordinal : 'u t -> int -> bool
val highest_delivered_ordinal : 'u t -> int
(** -1 when nothing ordered was delivered yet. *)

val dpd : 'u t -> Proposal.id list
(** Delivered proposal descriptors with no ordinal yet, in ascending id
    order — the [dpd] field carried on no-decision and reconfiguration
    messages. *)

val compact : 'u t -> below:int -> 'u t
(** Drop retained payloads of delivered proposals whose ordinal is
    below [below], the oal's purge frontier (they are stable
    everywhere). Costs the payloads dropped, not those retained;
    returns [t] itself when nothing is dropped. *)

(** {1 Undeliverable marks (auto-clearing, Section 4.3)} *)

val mark_undeliverable : 'u t -> Proposal.id -> expires:Time.t -> 'u t
(** Explicitly mark one proposal until the synchronized-clock time
    [expires] ("an undeliverable mark is automatically cleared after
    one cycle, unless it was set again"). *)

val block_origin : 'u t -> Proc_id.t -> expires:Time.t -> 'u t
(** Mark every proposal from this origin received before [expires] —
    the "received after p has sent the no-decision or reconfiguration
    message" rule. *)

val is_marked : 'u t -> Proposal.id -> now:Time.t -> bool
val expire_marks : 'u t -> now:Time.t -> 'u t

val purge_marked : 'u t -> now:Time.t -> 'u t
(** Drop marked proposals from the proposal buffer ("each group member
    purges all proposals marked as undeliverable from their pdb and
    pb"). *)

(** {1 Direct serialization walks}

    Counted folds over the live structures — the same elements as the
    {!wire} fields, without materializing them. Ids and origins come in
    ascending order. The accumulator threading lets an encoder use a
    statically allocated callback, keeping the state-transfer encode
    path free of per-frame allocation. *)

val proposal_count : 'u t -> int
val fold_proposals : (Proposal.id -> 'u Proposal.t -> 'a -> 'a) -> 'u t -> 'a -> 'a

val delivered_count : 'u t -> int
(** The number of origins with a delivered proposal. *)

val fold_delivered : (Proc_id.t -> Range_set.t -> 'a -> 'a) -> 'u t -> 'a -> 'a
(** Each origin with its delivered [seq]s. *)

val delivered_ordinals : 'u t -> Range_set.t
val undated_count : 'u t -> int
val fold_undated : (Proposal.id -> 'a -> 'a) -> 'u t -> 'a -> 'a

val dated_count : 'u t -> int
val fold_dated : (Proposal.id -> int -> 'a -> 'a) -> 'u t -> 'a -> 'a
(** Each stored delivered proposal whose ordinal is known, with that
    ordinal. *)

val marks_of : 'u t -> (Proposal.id * Time.t) list
(** The live marks list (newest first), shared, not copied. *)

val blocked_of : 'u t -> (Proc_id.t * Time.t) list
(** The live blocked-origins list (newest first), shared, not
    copied. *)

(** {1 Wire view}

    Concrete image of the buffers for serialization (state-transfer
    messages cross the live runtime's UDP codec carrying the sender's
    buffers). Its size is set by the origins, the holes in the history
    and the updates in flight, not by the number delivered. Ranges are
    closed [(lo, hi)] pairs in ascending order. [of_wire (to_wire t)]
    reconstructs [t] exactly, and [to_wire] of equal buffers is
    structurally equal. *)

type 'u wire = {
  w_proposals : 'u Proposal.t list;
  w_delivered : (Proc_id.t * (int * int) list) list;
      (** per origin, its delivered [seq]s *)
  w_ordinals : (int * int) list;  (** the delivered ordinals *)
  w_undated : Proposal.id list;  (** delivered, ordinal not known yet *)
  w_dated : (Proposal.id * int) list;
      (** stored, delivered, with the ordinal it was delivered or dated
          at *)
  w_marks : (Proposal.id * Time.t) list;
  w_blocked : (Proc_id.t * Time.t) list;
}

val to_wire : 'u t -> 'u wire

val of_wire : 'u wire -> 'u t
(** Total: an origin listed twice gets the union of its ranges, and an
    undated or dated id the image does not show delivered (a dated one
    also stored and not undated) is dropped. *)
