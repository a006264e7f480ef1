(** Broadcast semantics supported by the timewheel service.

    The timewheel group communication service supports, per update and
    simultaneously, three ordering semantics and three atomicity
    semantics (paper, Section 1). The concrete delivery conditions
    implementing each pair live in {!Delivery}. *)

type ordering =
  | Unordered  (** deliver as soon as the atomicity condition holds *)
  | Total  (** deliver in ordinal order, FIFO per sender *)
  | Timed
      (** deliver in ordinal order, and no earlier than a fixed delay
          after the send timestamp on the synchronized time base *)

type atomicity =
  | Weak
      (** deliver once the update is received and ordered; a failure may
          leave some members having delivered it and others not *)
  | Strong
      (** deliver only once every update it can depend on (ordinal <=
          its hdo) has been received locally *)
  | Strict
      (** deliver only once every update it can depend on is stable —
          acknowledged by all current group members *)

type t = { ordering : ordering; atomicity : atomicity }

val all : t list
(** The nine combinations, for sweeps and tests. *)

val unordered_weak : t
val total_strong : t

val equal : t -> t -> bool
val pp : t Fmt.t
