open Tasim

let index (p : Params.t) t =
  if Time.compare t Time.zero < 0 then 0
  else Time.to_us t / Time.to_us p.Params.slot_len

let owner (p : Params.t) s = Proc_id.of_int (s mod p.Params.n)
let owner_at p t = owner p (index p t)
let start_of (p : Params.t) s = Time.mul p.Params.slot_len s

let next_own_slot (p : Params.t) ~self ~now =
  let s = index p now in
  let rec probe s =
    if Proc_id.equal (owner p s) self then start_of p s else probe (s + 1)
  in
  probe (s + 1)

let current_own_slot_start (p : Params.t) ~self ~now =
  let s = index p now in
  if Proc_id.equal (owner p s) self then Some (start_of p s) else None

let in_last_k_slots p ~now ~sent_at ~k =
  (* a message k slots back is still within the "last k slots": with one
     message per cycle, a peer's latest message is exactly N-1 slots old
     when observed from the observer's own slot *)
  let current = index p now in
  let sent = index p sent_at in
  sent >= current - k && sent <= current

let was_own_latest_slot (p : Params.t) ~sender ~sent_at ~now =
  let sent_slot = index p sent_at in
  if not (Proc_id.equal (owner p sent_slot) sender) then false
  else begin
    (* the sender's most recent slot that has already begun *)
    let current = index p now in
    let rec latest s =
      if Proc_id.equal (owner p s) sender then s else latest (s - 1)
    in
    let latest_slot = if current < 0 then 0 else latest current in
    sent_slot = latest_slot
  end
