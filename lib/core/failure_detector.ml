open Tasim

module Pmap = Proc_id.Map

type t = {
  params : Params.t;
  self : Proc_id.t;
  heard : Time.t Pmap.t; (* proc -> freshest control msg send ts *)
  surveillance : (Proc_id.t * Time.t) option; (* expected sender, base ts *)
  health : int; (* local-health score: 0 = healthy, grows on lateness *)
  health_decayed : Time.t; (* last time the score decayed *)
}

(* Lifeguard's LHM: the multiplier saturates so a long overload cannot
   stretch the timeout without bound (NACK-less variant: our evidence
   is late-rejected inbound messages and late-firing local timers). *)
let max_health = 7

let create params ~self =
  {
    params;
    self;
    heard = Pmap.empty;
    surveillance = None;
    health = 0;
    health_decayed = Time.zero;
  }

let health t = t.health

(* Base timeout scaled by (1 + health); identical to the paper's 2D
   deadline when adaptive suspicion is off (health is then pinned 0). *)
let timeout t = Time.mul (Params.fd_timeout t.params) (1 + t.health)

let note_late_evidence t ~now =
  if not t.params.Params.adaptive_suspicion then t
  else if t.health >= max_health then { t with health_decayed = now }
  else { t with health = t.health + 1; health_decayed = now }

let decay_health t ~now =
  if (not t.params.Params.adaptive_suspicion) || t.health = 0 then t
  else begin
    let period = Params.cycle t.params in
    if Time.compare (Time.sub now t.health_decayed) period >= 0 then
      { t with health = t.health - 1; health_decayed = now }
    else t
  end

type verdict = Fresh | Stale | Late

let admit t ~from ~ts ~now =
  if Time.compare (Time.sub now ts) (Params.late_bound t.params) > 0 then
    (* a late inbound message is evidence that we (the receiver) are
       processing slowly — or the sender is; either way, doubt our own
       timeliness before doubting the peers we watch *)
    (note_late_evidence t ~now, Late)
  else
    match Pmap.find_opt from t.heard with
    | Some prev when Time.compare ts prev <= 0 -> (t, Stale)
    | Some _ | None ->
      (decay_health { t with heard = Pmap.add from ts t.heard } ~now, Fresh)

let note_sent t ~ts = { t with heard = Pmap.add t.self ts t.heard }

let heard_after t p ~since =
  match Pmap.find_opt p t.heard with
  | Some ts -> Time.compare ts since > 0
  | None -> false

let alive_list t ~now =
  let window = Params.alive_window t.params in
  let horizon = Time.sub now window in
  let collect p ts acc =
    if Time.compare ts horizon >= 0 then Proc_set.add p acc else acc
  in
  Pmap.fold collect t.heard (Proc_set.singleton t.self)

let forget t p = { t with heard = Pmap.remove p t.heard }

let expect t ~sender ~base = { t with surveillance = Some (sender, base) }
let suspend t = { t with surveillance = None }

let deadline t =
  Option.map (fun (_, base) -> Time.add base (timeout t)) t.surveillance

let satisfied_by t ~from ~ts =
  (* [ts] and [base] were read on different synchronized clocks, which
     may deviate by up to epsilon: allow that slack *)
  match t.surveillance with
  | Some (sender, base) ->
    Proc_id.equal from sender
    && Time.compare ts (Time.sub base t.params.Params.epsilon) > 0
  | None -> false

let timeout_suspect t ~now =
  match t.surveillance with
  | Some (sender, base) when Time.compare now (Time.add base (timeout t)) >= 0
    ->
    Some sender
  | Some _ | None -> None

let pp ppf t =
  let pp_surv ppf = function
    | None -> Fmt.string ppf "idle"
    | Some (p, base) ->
      Fmt.pf ppf "expect %a after %a" Proc_id.pp p Time.pp base
  in
  Fmt.pf ppf "fd(self=%a %a heard=%d)" Proc_id.pp t.self pp_surv
    t.surveillance (Pmap.cardinal t.heard)
