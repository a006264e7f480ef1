open Tasim

type config = {
  d : Time.t;
  timed_delay : Time.t;
  dissemination : Dissemination.policy;
}

let default_config =
  {
    d = Time.of_ms 30;
    timed_delay = Time.of_ms 200;
    dissemination = Dissemination.All_to_all;
  }

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

let pp_msg pp_payload ppf = function
  | Submit { semantics; payload } ->
    Fmt.pf ppf "submit(%a %a)" Semantics.pp semantics pp_payload payload
  | Proposal_msg p -> Fmt.pf ppf "proposal(%a)" (Proposal.pp pp_payload) p
  | Decision { ts; oal } ->
    Fmt.pf ppf "decision(ts=%a %a)" Time.pp ts Oal.pp oal
  | Nack { missing } ->
    Fmt.pf ppf "nack(%a)" Fmt.(list ~sep:sp Proposal.pp_id) missing
  | Retransmit p -> Fmt.pf ppf "retransmit(%a)" (Proposal.pp pp_payload) p

type 'u obs =
  | Delivered of { proposal : 'u Proposal.t; ordinal : int option }
  | Became_decider
  | Stable of { proposal_id : Proposal.id; ordinal : int }

let pp_obs pp_payload ppf = function
  | Delivered { proposal; ordinal } ->
    Fmt.pf ppf "delivered(%a ord=%a)"
      (Proposal.pp pp_payload)
      proposal
      Fmt.(option ~none:(any "-") int)
      ordinal
  | Became_decider -> Fmt.string ppf "became-decider"
  | Stable { proposal_id; ordinal } ->
    Fmt.pf ppf "stable(%a ord=%d)" Proposal.pp_id proposal_id ordinal

(* Reused per-call working storage for [recover_missing]; indexed by
   holder proc id, always left empty between calls. Shared by every
   functional copy of the state — it carries no state across calls. *)
type scratch = {
  sc_ids : Proposal.id list array; (* per holder, newest first *)
  mutable sc_holders : int list; (* dirty slots, reverse touch order *)
}

type 'u state = {
  cfg : config;
  self : Proc_id.t;
  n : int;
  group : Proc_set.t;
  oal : Oal.t;
  buffers : 'u Buffers.t;
  next_seq : int;
  decider : bool;
  stable_seen : int; (* ordinals < stable_seen already reported stable *)
  round : int; (* decision rounds sent; rotates the gossip fanout *)
  scratch : scratch;
}

let timer_decide = 10

let oal_of s = s.oal
let buffers_of s = s.buffers
let is_decider s = s.decider

let delivered_count s =
  (* delivered updates = delivered ordinals + unordered-pending entries *)
  Buffers.highest_delivered_ordinal s.buffers + 1 |> max 0

(* Run the delivery conditions and emit one observation per delivery. *)
let deliver_step s ~clock =
  let deliveries, buffers =
    Delivery.step ~oal:s.oal ~buffers:s.buffers ~now_sync:clock
      ~timed_delay:s.cfg.timed_delay
  in
  let effects =
    List.map
      (fun { Delivery.proposal; ordinal } ->
        Engine.Observe (Delivered { proposal; ordinal }))
      deliveries
  in
  ({ s with buffers }, effects)

(* Report entries newly known stable, in ordinal order. *)
let stability_step s =
  let stable_entries =
    List.filter
      (fun e -> e.Oal.known_stable && e.Oal.ordinal >= s.stable_seen)
      (Oal.entries s.oal)
  in
  let effects =
    List.filter_map
      (fun e ->
        match e.Oal.body with
        | Oal.Update info ->
          Some
            (Engine.Observe
               (Stable
                  {
                    proposal_id = info.Oal.proposal_id;
                    ordinal = e.Oal.ordinal;
                  }))
        | Oal.Membership _ -> None)
      stable_entries
  in
  let top =
    List.fold_left (fun acc e -> max acc (e.Oal.ordinal + 1)) s.stable_seen
      stable_entries
  in
  ({ s with stable_seen = top }, effects)

let init cfg ~self ~n ~clock ~incarnation:_ =
  let group = Proc_set.full ~n in
  let s =
    {
      cfg;
      self;
      n;
      group;
      oal = Oal.empty;
      buffers = Buffers.empty;
      next_seq = 0;
      decider = Proc_id.equal self (Proc_id.of_int 0);
      stable_seen = 0;
      round = 0;
      scratch = { sc_ids = Array.make n []; sc_holders = [] };
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
  let proposal =
    Proposal.make ~origin:s.self ~seq:s.next_seq ~semantics ~send_ts:clock
      ~hdo:(Buffers.highest_delivered_ordinal s.buffers)
      payload
  in
  let buffers, _fresh = Buffers.store s.buffers proposal in
  let s = { s with next_seq = s.next_seq + 1; buffers } in
  let s, deliver_effects = deliver_step s ~clock in
  (s, Engine.Broadcast (Proposal_msg proposal) :: deliver_effects)

(* Build and broadcast this decider's decision message. *)
let send_decision s ~clock =
  let received id = Buffers.received s.buffers id in
  let oal = Oal.ack_all_received s.oal ~received ~by:s.self in
  (* order every received proposal that has no descriptor yet *)
  let oal =
    List.fold_left
      (fun oal (p : 'u Proposal.t) ->
        if Oal.mem_update oal p.Proposal.id then oal
        else
          let info =
            {
              Oal.proposal_id = p.Proposal.id;
              semantics = p.Proposal.semantics;
              send_ts = p.Proposal.send_ts;
              hdo = p.Proposal.hdo;
            }
          in
          (* only the appender has seen the descriptor; the origin acks
             once it merges an oal carrying it *)
          fst (Oal.append_update oal info ~acks:(Proc_set.singleton s.self)))
      oal (Buffers.stored s.buffers)
  in
  let oal = Oal.refresh_stability oal ~group:s.group in
  (* report stability before purging drops the entries *)
  let s, stable_effects = stability_step { s with oal } in
  let oal =
    Oal.purge_stable s.oal ~delivered:(Buffers.delivered_ordinal s.buffers)
  in
  let buffers = Buffers.compact s.buffers ~below:(Oal.low oal) in
  let s = { s with oal; buffers; decider = false } in
  let s, deliver_effects = deliver_step s ~clock in
  let decision = Decision { ts = clock; oal } in
  let s, send_effects =
    match s.cfg.dissemination with
    | Dissemination.All_to_all -> (s, [ Engine.Broadcast decision ])
    | Dissemination.Gossip { fanout; _ } ->
      (* Point-to-point to the rotating fanout; the ring successor is
         always the first target, so the decider handover still rides
         the decision itself. Other members converge as the rotation
         sweeps them. *)
      let targets =
        Dissemination.probe_targets ~group:s.group ~self:s.self ~n:s.n ~fanout
          ~round:s.round
      in
      ( { s with round = s.round + 1 },
        List.map (fun p -> Engine.Send (p, decision)) targets )
  in
  (s, send_effects @ stable_effects @ deliver_effects)

(* Find, for each missing proposal, a holder proven by the oal acks and
   ask it to retransmit. *)
let recover_missing s =
  let sc = s.scratch in
  Oal.iter_entries s.oal (fun e ->
      match e.Oal.body with
      | Oal.Update info
        when (not (Buffers.received s.buffers info.Oal.proposal_id))
             && not e.Oal.undeliverable -> (
        match Proc_set.successor_in e.Oal.acks s.self ~n:s.n with
        | Some holder ->
          let hi = Proc_id.to_int holder in
          if sc.sc_ids.(hi) = [] then sc.sc_holders <- hi :: sc.sc_holders;
          sc.sc_ids.(hi) <- info.Oal.proposal_id :: sc.sc_ids.(hi)
        | None -> ())
      | Oal.Update _ | Oal.Membership _ -> ());
  let effs =
    List.fold_left
      (fun acc hi ->
        let ids = sc.sc_ids.(hi) in
        sc.sc_ids.(hi) <- [];
        Engine.Send (Proc_id.of_int hi, Nack { missing = List.rev ids }) :: acc)
      [] sc.sc_holders
  in
  sc.sc_holders <- [];
  effs

let on_receive_decision s ~clock ~src ~ts:_ ~oal =
  let s = { s with oal = Oal.merge ~local:s.oal ~incoming:oal } in
  let received id = Buffers.received s.buffers id in
  let s =
    { s with oal = Oal.ack_all_received s.oal ~received ~by:s.self }
  in
  (* learn ordinals of updates we delivered unordered *)
  let s =
    {
      s with
      buffers =
        Buffers.learn_ordinals s.buffers
          ~find:(Oal.first_update_ordinal s.oal);
    }
  in
  let s =
    { s with oal = Oal.refresh_stability s.oal ~group:s.group }
  in
  let s, stable_effects = stability_step s in
  let s =
    {
      s with
      oal =
        Oal.purge_stable s.oal
          ~delivered:(Buffers.delivered_ordinal s.buffers);
    }
  in
  let s =
    { s with buffers = Buffers.compact s.buffers ~below:(Oal.low s.oal) }
  in
  let nacks = recover_missing s in
  let s, deliver_effects = deliver_step s ~clock in
  let become =
    Rotation.is_next_decider ~group:s.group ~after:src ~n:s.n s.self
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
  | Proposal_msg p | Retransmit p ->
    let buffers, fresh = Buffers.store s.buffers p in
    if not fresh then (s, [])
    else begin
      let s = { s with buffers } in
      let s =
        { s with oal = Oal.ack_update s.oal p.Proposal.id s.self }
      in
      deliver_step s ~clock
    end
  | Decision { ts; oal } -> on_receive_decision s ~clock ~src ~ts ~oal
  | Nack { missing } ->
    let resend =
      List.filter_map
        (fun id ->
          match Buffers.get s.buffers id with
          | Some p -> Some (Engine.Send (src, Retransmit p))
          | None -> None)
        missing
    in
    (s, resend)

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
