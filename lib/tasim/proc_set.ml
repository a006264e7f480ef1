(* Immutable bitset keyed by process id.

   Process ids are small dense ints (team members 0..n-1), so a set is
   an array of bit words: [mem] is one load and a mask, union/inter/diff
   are a handful of word ops, and a 64-member group costs two words.
   The representation is canonical — no trailing zero words — so
   structural equality of the words is set equality, exactly the
   property the protocols lean on ("a majority sent join messages with
   the same join-list").

   The word array is never mutated after construction, so values are
   immutable despite the array underneath. *)

let bpw = Sys.int_size (* bits per word: 63 on 64-bit *)

type t = int array

let empty : t = [||]

(* canonical form: drop trailing zero words *)
let trim (w : int array) =
  let len = ref (Array.length w) in
  while !len > 0 && w.(!len - 1) = 0 do
    decr len
  done;
  if !len = Array.length w then w else Array.sub w 0 !len

let singleton p =
  let i = Proc_id.to_int p in
  let w = Array.make ((i / bpw) + 1) 0 in
  w.(i / bpw) <- 1 lsl (i mod bpw);
  w

let mem p t =
  let i = Proc_id.to_int p in
  let wi = i / bpw in
  wi < Array.length t && t.(wi) land (1 lsl (i mod bpw)) <> 0

let add p t =
  let i = Proc_id.to_int p in
  let wi = i / bpw in
  let len = Stdlib.max (Array.length t) (wi + 1) in
  if wi < Array.length t && t.(wi) land (1 lsl (i mod bpw)) <> 0 then t
  else begin
    let w = Array.make len 0 in
    Array.blit t 0 w 0 (Array.length t);
    w.(wi) <- w.(wi) lor (1 lsl (i mod bpw));
    w
  end

let remove p t =
  let i = Proc_id.to_int p in
  let wi = i / bpw in
  if wi >= Array.length t || t.(wi) land (1 lsl (i mod bpw)) = 0 then t
  else begin
    let w = Array.copy t in
    w.(wi) <- w.(wi) land lnot (1 lsl (i mod bpw));
    trim w
  end

let is_empty t = Array.length t = 0

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let long, short = if la >= lb then (a, b) else (b, a) in
    let w = Array.copy long in
    for i = 0 to Array.length short - 1 do
      w.(i) <- w.(i) lor short.(i)
    done;
    (* the top word of [long] is nonzero (canonical), so no trim *)
    w
  end

let inter a b =
  let len = Stdlib.min (Array.length a) (Array.length b) in
  if len = 0 then empty
  else begin
    let w = Array.make len 0 in
    for i = 0 to len - 1 do
      w.(i) <- a.(i) land b.(i)
    done;
    trim w
  end

let diff a b =
  let la = Array.length a in
  if la = 0 || Array.length b = 0 then a
  else begin
    let w = Array.copy a in
    let overlap = Stdlib.min la (Array.length b) in
    for i = 0 to overlap - 1 do
      w.(i) <- w.(i) land lnot b.(i)
    done;
    trim w
  end

let subset a b =
  let la = Array.length a in
  la <= Array.length b
  &&
  let rec go i = i >= la || (a.(i) land lnot b.(i) = 0 && go (i + 1)) in
  go 0

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* any total order serves the interface; order as (unsigned) integers:
   longer canonical array means a higher top bit *)
let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else begin
        let c = Stdlib.compare a.(i) b.(i) in
        if c <> 0 then c else go (i - 1)
      end
    in
    go (la - 1)
  end

(* Iteration peels the lowest set bit with [x land (-x)] and recurses —
   no refs and no intermediate closures, so iterating with a statically
   allocated callback costs zero heap words (the codec's send path
   counts on this). Ascending id order in all cases. *)

let rec iter_bits f base x =
  if x <> 0 then begin
    let b = x land -x in
    f (Proc_id.of_int (base + popcount (b - 1)));
    iter_bits f base (x land (x - 1))
  end

let rec iter_from f (t : t) wi =
  if wi < Array.length t then begin
    iter_bits f (wi * bpw) t.(wi);
    iter_from f t (wi + 1)
  end

let iter f t = iter_from f t 0

let rec fold_bits f base x acc =
  if x = 0 then acc
  else begin
    let b = x land -x in
    let acc = f (Proc_id.of_int (base + popcount (b - 1))) acc in
    fold_bits f base (x land (x - 1)) acc
  end

let rec fold_from f (t : t) wi acc =
  if wi >= Array.length t then acc
  else fold_from f t (wi + 1) (fold_bits f (wi * bpw) t.(wi) acc)

let fold f t acc = fold_from f t 0 acc

let to_list t = List.rev (fold (fun p acc -> p :: acc) t [])
let of_list ps = List.fold_left (fun t p -> add p t) empty ps

exception Early_exit

let for_all f t =
  match iter (fun p -> if not (f p) then raise_notrace Early_exit) t with
  | () -> true
  | exception Early_exit -> false

let exists f t =
  match iter (fun p -> if f p then raise_notrace Early_exit) t with
  | () -> false
  | exception Early_exit -> true

let filter f t = fold (fun p acc -> if f p then add p acc else acc) t empty
let full ~n = of_list (Proc_id.all ~n)
let is_majority t ~n = cardinal t > n / 2

let successor_in t p ~n =
  let rec probe candidate remaining =
    if remaining = 0 then None
    else if mem candidate t then Some candidate
    else probe (Proc_id.successor candidate ~n) (remaining - 1)
  in
  probe (Proc_id.successor p ~n) (n - 1)

let predecessor_in t p ~n =
  let rec probe candidate remaining =
    if remaining = 0 then None
    else if mem candidate t then Some candidate
    else probe (Proc_id.predecessor candidate ~n) (remaining - 1)
  in
  probe (Proc_id.predecessor p ~n) (n - 1)

(* members are separated by a plain space, not a break hint: a set
   never splits across lines. A horizontal box would not do, because
   Format starts a new line for any box opened past its maximum
   indentation, which a long prefix such as a timestamped view line
   reaches. *)
let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any " ") Proc_id.pp) (to_list t)

(* Mutable accumulator for building a set element by element without
   the per-[add] array copy of the immutable API. A decoder reading a
   64-member set from the wire does 64 adds; through [add] that is 64
   array copies, through a builder it is 64 in-place bit-ors and one
   final canonical copy in [build]. *)
module Builder = struct
  type set = t

  type t = { mutable words : int array; mutable hi : int }
  (* [hi]: number of live words (beyond it the scratch may be dirty
     from an earlier, larger set — [clear] only resets up to [hi]) *)

  let create () = { words = Array.make 4 0; hi = 0 }

  let clear b =
    Array.fill b.words 0 b.hi 0;
    b.hi <- 0

  let add b p =
    let i = Proc_id.to_int p in
    let wi = i / bpw in
    if wi >= Array.length b.words then begin
      let cap = ref (Array.length b.words * 2) in
      while wi >= !cap do
        cap := !cap * 2
      done;
      let words = Array.make !cap 0 in
      Array.blit b.words 0 words 0 b.hi;
      b.words <- words
    end;
    b.words.(wi) <- b.words.(wi) lor (1 lsl (i mod bpw));
    if wi >= b.hi then b.hi <- wi + 1

  let build b : set =
    let len = ref b.hi in
    while !len > 0 && b.words.(!len - 1) = 0 do
      decr len
    done;
    if !len = 0 then empty else Array.sub b.words 0 !len
end
