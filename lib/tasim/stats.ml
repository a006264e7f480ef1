type series = { mutable values : float list; mutable len : int }

(* Counter cells are atomics so interned bumps are domain-safe without
   a lock on the hot path; the tables themselves (interning, series,
   reporting, merge) are cold paths guarded by [lock]. Single-domain
   arithmetic is unchanged: an uncontended [Atomic.incr] is the same
   +1 the old [int ref] did, so counter values are bit-identical. *)
type t = {
  counters : (string, int Atomic.t) Hashtbl.t;
  series : (string, series) Hashtbl.t;
  lock : Mutex.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    series = Hashtbl.create 32;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* An interned counter is the very cell the string API updates, so the
   two views can never disagree and [merge] needs no special case. *)
type counter = int Atomic.t

let find_or_add t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = Atomic.make 0 in
    Hashtbl.add t.counters name c;
    c

let incr_by t name k =
  let c = locked t (fun () -> find_or_add t name) in
  ignore (Atomic.fetch_and_add c k)

let incr t name = incr_by t name 1
let counter t name = locked t (fun () -> find_or_add t name)
let bump c = Atomic.incr c
let bump_by c k = ignore (Atomic.fetch_and_add c k)
let counter_value c = Atomic.get c

let count t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> Atomic.get c
      | None -> 0)

let counters t =
  locked t (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) t.counters [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let record t name v =
  locked t (fun () ->
      match Hashtbl.find_opt t.series name with
      | Some s ->
        s.values <- v :: s.values;
        s.len <- s.len + 1
      | None -> Hashtbl.add t.series name { values = [ v ]; len = 1 })

let record_time t name span = record t name (float_of_int (Time.to_us span))

let samples t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.series name with
      | None -> [||]
      | Some s ->
        let arr = Array.make s.len 0.0 in
        let rec fill i = function
          | [] -> ()
          | v :: rest ->
            arr.(i) <- v;
            fill (i - 1) rest
        in
        fill (s.len - 1) s.values;
        arr)

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  stddev : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize values =
  let n = Array.length values in
  if n = 0 then None
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let sum = Array.fold_left ( +. ) 0.0 sorted in
    let mean = sum /. float_of_int n in
    let sq_dev =
      Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 sorted
    in
    let stddev = if n > 1 then sqrt (sq_dev /. float_of_int (n - 1)) else 0.0 in
    Some
      {
        n;
        mean;
        min = sorted.(0);
        max = sorted.(n - 1);
        p50 = percentile sorted 0.50;
        p90 = percentile sorted 0.90;
        p95 = percentile sorted 0.95;
        p99 = percentile sorted 0.99;
        stddev;
      }
  end

let summary_of t name = summarize (samples t name)

let pp_summary ppf s =
  Fmt.pf ppf "n=%d min=%.3f p50=%.3f p90=%.3f max=%.3f mean=%.3f" s.n s.min
    s.p50 s.p90 s.max s.mean

let merge dst src =
  (* Snapshot [src] under its own lock, then fold into [dst] under
     [dst]'s — never holding both, so concurrent merges in opposite
     directions cannot deadlock. *)
  let cs =
    locked src (fun () ->
        Hashtbl.fold
          (fun name c acc -> (name, Atomic.get c) :: acc)
          src.counters [])
  in
  let ss =
    locked src (fun () ->
        Hashtbl.fold
          (fun name s acc -> (name, List.rev s.values) :: acc)
          src.series [])
  in
  List.iter (fun (name, v) -> incr_by dst name v) cs;
  List.iter (fun (name, vs) -> List.iter (record dst name) vs) ss
