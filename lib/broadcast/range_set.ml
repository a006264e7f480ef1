(* Runs highest first. Invariant: each run is non-empty, and the run
   below it ends at least two short of its start ([below.hi + 1 < lo]),
   so runs neither overlap nor touch and the form is canonical. The
   comparisons are written so that no [+ 1] or [- 1] overflows at the
   ends of the int range. *)
type t = Nil | Run of { lo : int; hi : int; below : t }

let empty = Nil
let is_empty = function Nil -> true | Run _ -> false

let rec mem x = function
  | Nil -> false
  | Run r -> if x >= r.lo then x <= r.hi else mem x r.below

(* [lo, hi] touches no run above the position it reaches: merge into it
   every run below that overlaps or touches it *)
let rec absorb lo hi = function
  | Run r when r.hi >= lo || r.hi + 1 = lo -> absorb (min lo r.lo) hi r.below
  | below -> Run { lo; hi; below }

let rec add_range lo hi t =
  match t with
  | Nil -> Run { lo; hi; below = Nil }
  | Run r ->
    if lo > r.hi && lo - 1 > r.hi then Run { lo; hi; below = t }
    else if hi < r.lo && hi + 1 < r.lo then
      let below = add_range lo hi r.below in
      if below == r.below then t else Run { r with below }
    else if lo >= r.lo && hi <= r.hi then t
    else absorb (min lo r.lo) (max hi r.hi) r.below

let add x t = add_range x x t
let max_elt_opt = function Nil -> None | Run r -> Some r.hi

let cardinal t =
  let rec count n = function Nil -> n | Run r -> count (n + 1) r.below in
  count 0 t

let rec fold f t acc =
  match t with Nil -> acc | Run r -> fold f r.below (f r.lo r.hi acc)

(* ascending starts: each range lands on or above the highest run, so
   every insertion is O(1) *)
let of_ranges ranges =
  List.fold_left
    (fun t (lo, hi) -> if lo > hi then t else add_range lo hi t)
    Nil
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) ranges)
