open Tasim

type config = { d : Time.t; timed_delay : Time.t }

let default_config = { d = Time.of_ms 30; timed_delay = Time.of_ms 200 }

type 'u msg =
  | Submit of { semantics : Semantics.t; payload : 'u }
  | Proposal_msg of 'u Proposal.t
  | Decision of { ts : Time.t; oal : Oal.t }
  | Nack of { missing : Proposal.id list }
  | Retransmit of 'u Proposal.t

let kind_of_msg = function
  | Submit _ -> "submit"
  | Proposal_msg _ -> "proposal"
  | Decision _ -> "decision"
  | Nack _ -> "nack"
  | Retransmit _ -> "retransmit"

type 'u obs =
  | Delivered of { proposal : 'u Proposal.t; ordinal : int option }
  | Became_decider
  | Stable of { proposal_id : Proposal.id; ordinal : int }

type 'u state = {
  cfg : config;
  core : 'u Core.t;
  group : Proc_set.t;
  decider : bool;
  stable_seen : int; (* ordinals < stable_seen already reported stable *)
}

let timer_decide = 10

(* Run the delivery conditions and emit one observation per delivery. *)
let deliver_step s ~clock =
  let core, deliveries =
    Core.deliver s.core ~now:clock ~timed_delay:s.cfg.timed_delay
  in
  let effects =
    List.map
      (fun { Delivery.proposal; ordinal } ->
        Engine.Observe (Delivered { proposal; ordinal }))
      deliveries
  in
  ({ s with core }, effects)

(* Report entries newly known stable, in ordinal order. *)
let stability_step s =
  let fresh =
    List.filter
      (fun e -> e.Oal.known_stable && e.Oal.ordinal >= s.stable_seen)
      (Oal.entries (Core.oal s.core))
  in
  let report e =
    match e.Oal.body with
    | Oal.Update { proposal_id; _ } ->
      Some (Engine.Observe (Stable { proposal_id; ordinal = e.Oal.ordinal }))
    | Oal.Membership _ -> None
  in
  let top =
    List.fold_left (fun acc e -> max acc (e.Oal.ordinal + 1)) s.stable_seen
      fresh
  in
  ({ s with stable_seen = top }, List.filter_map report fresh)

(* Refresh stability, report it, then purge: the reports must see the
   entries the purge drops. *)
let settle s core =
  let s, stable_effects =
    stability_step { s with core = Core.refresh core ~group:s.group }
  in
  ({ s with core = Core.purge s.core }, stable_effects)

let init cfg ~self ~n ~clock ~incarnation:_ =
  let s =
    {
      cfg;
      core = Core.create ~self ~n;
      group = Proc_set.full ~n;
      decider = Proc_id.equal self (Proc_id.of_int 0);
      stable_seen = 0;
    }
  in
  let effects =
    if s.decider then
      [
        Engine.Set_timer { key = timer_decide; at_clock = Time.add clock cfg.d };
        Engine.Observe Became_decider;
      ]
    else []
  in
  (s, effects)

let submit s ~clock ~semantics payload =
  let core, proposal = Core.submit s.core ~clock ~semantics payload in
  let s, deliver_effects = deliver_step { s with core } ~clock in
  (s, Engine.Broadcast (Proposal_msg proposal) :: deliver_effects)

(* Build and broadcast this decider's decision message. *)
let send_decision s ~clock =
  let core = Core.order_pending (Core.view s.core) ~now:clock in
  let s, stable_effects = settle s core in
  let s, deliver_effects = deliver_step { s with decider = false } ~clock in
  let decision = Decision { ts = clock; oal = Core.oal s.core } in
  (s, (Engine.Broadcast decision :: stable_effects) @ deliver_effects)

let on_receive_decision s ~clock ~src ~oal =
  let core = Core.merge s.core ~incoming:oal in
  let s, stable_effects = settle s core in
  let nacks =
    List.map
      (fun (holder, missing) -> Engine.Send (holder, Nack { missing }))
      (Core.recover s.core ~group:s.group)
  in
  let s, deliver_effects = deliver_step s ~clock in
  let become =
    Rotation.is_next_decider ~group:s.group ~after:src ~n:(Core.n s.core)
      (Core.self s.core)
  in
  if become && not s.decider then
    ( { s with decider = true },
      nacks @ stable_effects @ deliver_effects
      @ [
          Engine.Set_timer
            { key = timer_decide; at_clock = Time.add clock s.cfg.d };
          Engine.Observe Became_decider;
        ] )
  else (s, nacks @ stable_effects @ deliver_effects)

let on_receive s ~clock ~src msg =
  match msg with
  | Submit { semantics; payload } -> submit s ~clock ~semantics payload
  | Proposal_msg p | Retransmit p -> (
    match Core.receive s.core ~now:clock p with
    | Some core -> deliver_step { s with core } ~clock
    | None -> (s, []))
  | Decision { ts = _; oal } -> on_receive_decision s ~clock ~src ~oal
  | Nack { missing } ->
    ( s,
      List.map
        (fun p -> Engine.Send (src, Retransmit p))
        (Core.retransmits s.core missing) )

let on_timer s ~clock ~key =
  if key = timer_decide && s.decider then send_decision s ~clock
  else (s, [])

let automaton cfg =
  {
    Engine.name = "broadcast";
    init = (fun ~self ~n ~clock ~incarnation -> init cfg ~self ~n ~clock ~incarnation);
    on_receive;
    on_timer;
  }
