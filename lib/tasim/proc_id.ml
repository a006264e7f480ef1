type t = int

let of_int i =
  if i < 0 then invalid_arg "Proc_id.of_int: negative id";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t
let successor t ~n = (t + 1) mod n
let predecessor t ~n = (t + n - 1) mod n
let ring_distance ~from ~to_ ~n = ((to_ - from) mod n + n) mod n
let all ~n = List.init n (fun i -> i)
let pp ppf t = Fmt.pf ppf "p%d" t

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
