(** Process identifiers.

    Team members are identified by small integers [0 .. n-1]. The team
    is cyclically ordered by identifier (paper, Section 2), so ring
    successor/predecessor arithmetic lives here. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val successor : t -> n:int -> t
(** Next process in the cyclic order of an [n]-process team. *)

val predecessor : t -> n:int -> t

val ring_distance : from:t -> to_:t -> n:int -> int
(** Hops from [from] to [to_] following successors; 0 when equal. *)

val all : n:int -> t list
(** [\[0; ...; n-1\]] as process ids. *)

val pp : t Fmt.t
(** Prints as ["p3"]. *)

module Map : Map.S with type key = t
(** Maps keyed by process id, in id order. *)
