open Tasim

type pacing = Paced | Eager | Adaptive

type t = {
  n : int;
  delta : Time.t;
  sigma : Time.t;
  epsilon : Time.t;
  d : Time.t;
  slot_len : Time.t;
  timed_delay : Time.t;
  pacing : pacing;
  single_failure_election : bool;
  adaptive_suspicion : bool;
}

let make ?(delta = Time.of_ms 10) ?(sigma = Time.of_ms 1)
    ?(epsilon = Time.of_ms 2) ?(d = Time.of_ms 30) ?slot_len
    ?(timed_delay = Time.of_ms 200) ?(pacing = Adaptive)
    ?(single_failure_election = true) ?(adaptive_suspicion = false) ~n () =
  let slot_len =
    match slot_len with Some s -> s | None -> Time.add d delta
  in
  if n < 2 then invalid_arg "Params.make: n must be >= 2";
  if Time.compare delta Time.zero <= 0 then
    invalid_arg "Params.make: delta must be positive";
  if Time.compare d Time.zero <= 0 then
    invalid_arg "Params.make: d must be positive";
  if Time.compare slot_len (Time.add d delta) < 0 then
    invalid_arg "Params.make: slot_len must be at least d + delta";
  {
    n; delta; sigma; epsilon; d; slot_len; timed_delay; pacing;
    single_failure_election; adaptive_suspicion;
  }

let cycle t = Time.mul t.slot_len t.n
let fd_timeout t = Time.mul t.d 2
let alive_window t = Time.mul t.slot_len t.n
let late_bound t = Time.add t.delta (Time.add t.epsilon t.sigma)
let majority t = (t.n / 2) + 1

let pp ppf t =
  Fmt.pf ppf
    "params(n=%d delta=%a sigma=%a epsilon=%a d=%a slot=%a cycle=%a)" t.n
    Time.pp t.delta Time.pp t.sigma Time.pp t.epsilon Time.pp t.d Time.pp
    t.slot_len Time.pp (cycle t)
