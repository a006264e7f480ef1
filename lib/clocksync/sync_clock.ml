open Tasim

type params = {
  epsilon : Time.t;
  drift_bound : float;
  validity : Time.t;
  n : int;
}

module Pmap = Proc_id.Map

type t = { params : params; self : Proc_id.t; readings : Reading.t Pmap.t }

let create params ~self = { params; self; readings = Pmap.empty }
let params t = t.params

let note_reading t ~of_ reading =
  if Proc_id.equal of_ t.self then t
  else
    let better =
      match Pmap.find_opt of_ t.readings with
      | None -> true
      | Some old ->
        (* compare at the new reading's time: fresher usually wins *)
        let now_local = reading.Reading.read_at in
        let drift_bound = t.params.drift_bound in
        Time.compare
          (Reading.error_at reading ~now_local ~drift_bound)
          (Reading.error_at old ~now_local ~drift_bound)
        <= 0
    in
    if better then { t with readings = Pmap.add of_ reading t.readings }
    else t

let is_valid t ~now_local reading =
  let age = Time.sub now_local reading.Reading.read_at in
  Time.compare age t.params.validity <= 0

let drop_stale t ~now_local =
  {
    t with
    readings = Pmap.filter (fun _ r -> is_valid t ~now_local r) t.readings;
  }

type status = { synchronized : bool; reference : Proc_id.t; bound : Time.t }

let reference = Proc_id.of_int 0

let bound_to t ~now_local reference =
  if Proc_id.equal reference t.self then Time.zero
  else
    match Pmap.find_opt reference t.readings with
    | None -> Time.infinity
    | Some r ->
      Reading.error_at r ~now_local ~drift_bound:t.params.drift_bound

let status t ~now_local =
  let bound = bound_to t ~now_local reference in
  let synchronized =
    Time.compare bound (Time.div t.params.epsilon 2) <= 0
  in
  { synchronized; reference; bound }

let offset_to t reference =
  if Proc_id.equal reference t.self then Some Time.zero
  else
    match Pmap.find_opt reference t.readings with
    | None -> None
    | Some r -> Some r.Reading.offset

let reading t ~now_local =
  let st = status t ~now_local in
  if not st.synchronized then None
  else
    match offset_to t st.reference with
    | None -> None
    | Some offset -> Some (Time.add now_local offset)

let local_of_sync t ~sync ~now_local =
  let st = status t ~now_local in
  if not st.synchronized then None
  else
    match offset_to t st.reference with
    | None -> None
    | Some offset -> Some (Time.sub sync offset)
