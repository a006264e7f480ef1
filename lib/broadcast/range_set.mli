(** Sets of integers stored as disjoint closed ranges.

    A set that is mostly one run, with a few holes, costs one node per
    run instead of one per element: the delivered [seq]s of an origin
    and the delivered ordinals of a member are such sets (see
    {!Buffers}). The representation is canonical, so two sets with the
    same elements are structurally equal. Runs are kept highest first,
    which makes the common operations on a growing set (add the next
    element, ask for the maximum or a recent element) cost O(1). *)

type t

val empty : t
val is_empty : t -> bool

val mem : int -> t -> bool
(** Costs the number of runs above the element. *)

val add : int -> t -> t
(** Joins the runs the element touches: adding [x] between [[a, x-1]]
    and [[x+1, b]] leaves one run [[a, b]]. Returns the argument itself
    when [x] is already a member. *)

val max_elt_opt : t -> int option

val cardinal : t -> int
(** The number of runs, not of elements. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t acc] applies [f lo hi] to each run [[lo, hi]], highest
    first. Allocates nothing itself. *)

val of_ranges : (int * int) list -> t
(** The union of the given closed ranges, in any order, overlapping or
    not; a pair with [lo > hi] is empty and adds nothing. Costs
    O(k log k) for k pairs. *)
