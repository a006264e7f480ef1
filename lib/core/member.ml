open Tasim
open Broadcast
module C = Control_msg
module CS = Creator_state
module FD = Failure_detector
module GC = Group_creator

module Pmap = Proc_id.Map

(* timer keys *)
let timer_expect = 1
let timer_decide = 2
let timer_slot = 3

type persistent = { last_group_id : Group_id.t; last_group : Proc_set.t }

type ('u, 'app) config = {
  params : Params.t;
  apply : 'app -> 'u -> 'app;
  initial_app : 'app;
  persist : self:Proc_id.t -> now:Time.t -> persistent -> unit;
  restore : self:Proc_id.t -> now:Time.t -> persistent option;
}

let config ?apply ?persist ?restore ~initial_app params =
  let apply = match apply with Some f -> f | None -> fun app _ -> app in
  let persist =
    match persist with Some f -> f | None -> fun ~self:_ ~now:_ _ -> ()
  in
  let restore =
    match restore with Some f -> f | None -> fun ~self:_ ~now:_ -> None
  in
  { params; apply; initial_app; persist; restore }

type 'u obs =
  | View_installed of { group : Proc_set.t; group_id : Group_id.t }
  | Delivered of { proposal : 'u Proposal.t; ordinal : int option }
  | Transition of { from_ : CS.kind; to_ : CS.kind }
  | Suspected of { suspect : Proc_id.t }
  | Late_rejected of { from : Proc_id.t }
  | Became_decider
  | Excluded

let pp_obs ppf = function
  | View_installed { group; group_id } ->
    Fmt.pf ppf "view#%a%a" Group_id.pp group_id Proc_set.pp group
  | Delivered { proposal; ordinal } ->
    Fmt.pf ppf "delivered(%a ord=%a)" Proposal.pp_id proposal.Proposal.id
      Fmt.(option ~none:(any "-") int)
      ordinal
  | Transition { from_; to_ } ->
    Fmt.pf ppf "%a->%a" CS.pp_kind from_ CS.pp_kind to_
  | Suspected { suspect } -> Fmt.pf ppf "suspected(%a)" Proc_id.pp suspect
  | Late_rejected { from } -> Fmt.pf ppf "late-rejected(%a)" Proc_id.pp from
  | Became_decider -> Fmt.string ppf "became-decider"
  | Excluded -> Fmt.string ppf "excluded"

type peer_view = { pv_view : Oal.t; pv_dpd : Oal.update_info list }

type join_info = { ji_ts : Time.t; ji_list : Proc_set.t; ji_epoch : int }

type reconfig_info = {
  rc_ts : Time.t;
  rc_list : Proc_set.t;
  rc_last_decision_ts : Time.t;
}

type alive_info = { ai_ts : Time.t; ai_alive : Proc_set.t }

type ('u, 'app) state = {
  cfg : ('u, 'app) config;
  self : Proc_id.t;
  n : int;
  creator : CS.t;
  group : Proc_set.t;
  group_id : Group_id.t; (* Group_id.none until a first group is known *)
  form_epoch : int;
      (* epoch any initial formation this process takes part in must
         use: 0 cold, one above the persisted epoch after recovery,
         ratcheted up to the largest epoch heard in a join message *)
  fd : FD.t;
  core : 'u Core.t; (* the broadcast state: oal, buffers, next seq *)
  last_decision_ts : Time.t;
  decider : bool;
  hasten : (Time.t * Time.t) option;
      (* adaptive pacing, while the decide timer still stands at its
         paced deadline: (previous decision + delta, paced deadline) *)
  last_control_sent : ('u, 'app) C.t option;
  app : 'app;
  join_msgs : join_info Pmap.t;
  reconfig_msgs : reconfig_info Pmap.t;
  peer_views : peer_view Pmap.t;
  alive_views : alive_info Pmap.t;
  pending_new_group : (Group_id.t * Proc_set.t * Proc_set.t) option;
      (* excluded while in n-failure: (group_id, group, members heard) *)
}

type ('u, 'app) eff = (('u, 'app) C.t, 'u obs) Engine.effect

let creator_state s = s.creator
let group s = s.group
let group_id s = s.group_id
let form_epoch s = s.form_epoch
let has_group s = Group_id.is_known s.group_id
let is_decider s = s.decider
let app s = s.app
let oal_of s = Core.oal s.core
let buffers_of s = Core.buffers s.core
let alive_list s ~now = FD.alive_list s.fd ~now

let submit ~semantics payload = C.Submit { semantics; payload }

let params s = s.cfg.params
let majority s = Params.majority (params s)

let env_of s ~clock =
  {
    GC.self = s.self;
    group = s.group;
    n = s.n;
    majority = majority s;
    current_slot = Slots.index (params s) clock;
    single_failure_election = (params s).Params.single_failure_election;
  }

(* ------------------------------------------------------------------ *)
(* small helpers producing (state, effect list)                        *)

let member_of_current_group s =
  Group_id.is_known s.group_id && Proc_set.mem s.self s.group

(* Every view install goes through here. Stable storage records the
   view before the observation reports it, so a recovered incarnation
   knows the epoch it must form above (chaos-11: an amnesiac majority
   re-forming a colliding epoch). *)
let install_view s ~clock ~group ~group_id :
    ('u, 'app) state * ('u, 'app) eff =
  (* A dropped member was last heard about N*D + 2D before its
     exclusion, less than the N*(D+delta) alive window when
     N*delta > 2D: its stale heard-record would put it straight back on
     the alive-list and [joiners_ready] would readmit it unheard. *)
  let fd =
    Proc_set.fold (fun p fd -> FD.forget fd p) (Proc_set.diff s.group group) s.fd
  in
  let s = { s with group; group_id; fd } in
  s.cfg.persist ~self:s.self ~now:clock
    { last_group_id = group_id; last_group = group };
  (s, Engine.Observe (View_installed { group; group_id }))

let can_deliver s =
  member_of_current_group s && CS.kind_of s.creator <> CS.KJoin

(* Move the group creator; a change of state kind is observed. *)
let set_creator s creator : ('u, 'app) state * ('u, 'app) eff list =
  let from_ = CS.kind_of s.creator and to_ = CS.kind_of creator in
  ( { s with creator },
    if CS.equal_kind from_ to_ then []
    else [ Engine.Observe (Transition { from_; to_ }) ] )

(* Keep the engine timer for the FD surveillance deadline in sync. *)
let sync_expect_timer s : ('u, 'app) eff list =
  match FD.deadline s.fd with
  | Some dl -> [ Engine.Set_timer { key = timer_expect; at_clock = dl } ]
  | None -> [ Engine.Cancel_timer timer_expect ]

let set_oal s oal = { s with core = Core.set_oal s.core oal }
let set_buffers s buffers = { s with core = Core.set_buffers s.core buffers }
let my_view s = Core.oal (Core.view s.core)

let deliver s ~clock : ('u, 'app) state * ('u, 'app) eff list =
  if not (can_deliver s) then (s, [])
  else begin
    let core, deliveries =
      Core.deliver s.core ~now:clock
        ~timed_delay:(params s).Params.timed_delay
    in
    let app =
      List.fold_left
        (fun app { Delivery.proposal; _ } ->
          s.cfg.apply app proposal.Proposal.payload)
        s.app deliveries
    in
    let effects =
      List.map
        (fun { Delivery.proposal; ordinal } ->
          Engine.Observe (Delivered { proposal; ordinal }))
        deliveries
    in
    ({ s with core; app }, effects)
  end

(* Negative acknowledgements for updates the oal proves exist but we
   never received, one per holder asked. *)
let recover_missing s : ('u, 'app) eff list =
  List.map
    (fun (holder, missing) -> Engine.Send (holder, C.Nack { missing }))
    (Core.recover s.core ~group:s.group)

let housekeeping_oal s =
  { s with core = Core.purge (Core.refresh s.core ~group:s.group) }

(* Record a control message we are about to broadcast: remember it for
   wrong-suspicion retransmission and, for ring messages (decisions and
   no-decisions), point the surveillance at our own successor. *)
let send_control s ~ring ~ts msg : ('u, 'app) state * ('u, 'app) eff list =
  let s =
    { s with last_control_sent = Some msg; fd = FD.note_sent s.fd ~ts }
  in
  if not ring then (s, [ Engine.Broadcast msg ])
  else
    match Proc_set.successor_in s.group s.self ~n:s.n with
    | Some next ->
      let s = { s with fd = FD.expect s.fd ~sender:next ~base:ts } in
      (s, Engine.Broadcast msg :: sync_expect_timer s)
    | None -> (s, [ Engine.Broadcast msg ])

let decision s ~clock =
  { C.d_ts = clock; d_oal = oal_of s; d_alive = FD.alive_list s.fd ~now:clock }

(* Send a decision as the decider: give up the role and broadcast it on
   the ring. *)
let broadcast_decision s ~clock : ('u, 'app) state * ('u, 'app) eff list =
  let d = decision s ~clock in
  let s = { s with decider = false; last_decision_ts = clock } in
  send_control s ~ring:true ~ts:clock (C.Decision d)

(* ------------------------------------------------------------------ *)
(* decision construction                                               *)

(* Integration of joiners (Section 4.2): a decider adds process p to the
   group when every current member's (fresh) piggybacked alive-list
   contains p. Also detect members that never got their state transfer
   (still sending join messages) and re-send it. *)
let joiners_ready s ~clock =
  let fresh_alive m =
    if Proc_id.equal m s.self then Some (FD.alive_list s.fd ~now:clock)
    else
      match Pmap.find_opt m s.alive_views with
      | Some { ai_ts; ai_alive }
        when Time.compare (Time.sub clock ai_ts)
               (Params.alive_window (params s))
             <= 0 ->
        Some ai_alive
      | Some _ | None -> None
  in
  let all_views =
    Proc_set.fold
      (fun m acc ->
        match acc with
        | None -> None
        | Some views -> (
          match fresh_alive m with
          | Some v -> Some (v :: views)
          | None -> None))
      s.group (Some [])
  in
  match all_views with
  | None -> Proc_set.empty (* missing a fresh view: integrate nothing *)
  | Some views ->
    let everywhere p = List.for_all (Proc_set.mem p) views in
    let candidates =
      Proc_set.diff (FD.alive_list s.fd ~now:clock) s.group
    in
    Proc_set.filter everywhere candidates

let needs_transfer_refresh s ~clock =
  (* members still in join state keep sending join messages *)
  Proc_set.filter
    (fun m ->
      (not (Proc_id.equal m s.self))
      &&
      match Pmap.find_opt m s.join_msgs with
      | Some { ji_ts; _ } ->
        Time.compare (Time.sub clock ji_ts) (Params.cycle (params s)) <= 0
      | None -> false)
    s.group

let state_transfer_msg s ~ts =
  C.State_transfer
    {
      st_ts = ts;
      st_group = s.group;
      st_group_id = s.group_id;
      st_oal = oal_of s;
      st_app = s.app;
      st_buffers = buffers_of s;
    }

(* The decider's decision send: integrate joiners, order pending
   proposals, refresh/purge the oal, broadcast, hand the role over. *)
let send_decision s ~clock : ('u, 'app) state * ('u, 'app) eff list =
  let s = { s with core = Core.view s.core } in
  let joiners = joiners_ready s ~clock in
  let s, view_effects =
    if Proc_set.is_empty joiners then (s, [])
    else begin
      let group = Proc_set.union s.group joiners in
      let group_id = Group_id.succ s.group_id in
      let oal, _ = Oal.append_membership (oal_of s) ~group ~group_id in
      let s, view = install_view (set_oal s oal) ~clock ~group ~group_id in
      (s, [ view ])
    end
  in
  let s = { s with core = Core.order_pending s.core ~now:clock } in
  let s = housekeeping_oal s in
  let s, send_effects = broadcast_decision s ~clock in
  let transfer_targets =
    Proc_set.union joiners (needs_transfer_refresh s ~clock)
  in
  let transfer_effects =
    Proc_set.fold
      (fun p acc -> Engine.Send (p, state_transfer_msg s ~ts:clock) :: acc)
      transfer_targets []
  in
  let s, deliver_effects = deliver s ~clock in
  (s, view_effects @ send_effects @ transfer_effects @ deliver_effects)

(* Adaptive pacing: move the decide timer from the paced deadline to
   delta after the previous decision (or now, when that has passed), so
   the previous decision has reached every member of a timely run. Once
   only, on the first unordered proposal a failure-free decider holds. *)
let hasten s ~clock : ('u, 'app) state * ('u, 'app) eff list =
  match s.hasten with
  | Some (floor, due)
    when s.decider && CS.kind_of s.creator = CS.KFailure_free ->
    let at_clock = Time.min due (Time.max clock floor) in
    ( { s with hasten = None },
      [ Engine.Set_timer { key = timer_decide; at_clock } ] )
  | Some _ | None -> (s, [])

(* [prev] is the timestamp of the decision that handed the role over. *)
let become_decider s ~clock ~prev : ('u, 'app) state * ('u, 'app) eff list =
  if s.decider then (s, [])
  else begin
    let p = params s in
    let due =
      Time.add clock
        (match p.Params.pacing with
        | Params.Eager -> Time.of_us 1
        | Params.Paced | Params.Adaptive -> p.Params.d)
    in
    let window =
      match p.Params.pacing with
      | Params.Adaptive -> Some (Time.add prev p.Params.delta, due)
      | Params.Paced | Params.Eager -> None
    in
    let s = { s with decider = true; hasten = window } in
    let s, arm =
      if window <> None && Core.holds_unordered s.core ~now:clock then
        hasten s ~clock
      else (s, [ Engine.Set_timer { key = timer_decide; at_clock = due } ])
    in
    (s, arm @ [ Engine.Observe Became_decider ])
  end

(* ------------------------------------------------------------------ *)
(* group-changing decisions (elections)                                *)

(* Rebuild the oal as the new decider of [new_group]: merge the views
   collected from the no-decision / reconfiguration messages of the new
   members, classify and mark undeliverable proposals, append the dpd
   descriptors every member reported, and append the membership
   descriptor. *)
let create_group s ~clock ~new_group : ('u, 'app) state * ('u, 'app) eff list =
  let departed = Proc_set.diff s.group new_group in
  (* 1. my own view, acks refreshed *)
  let oal = my_view s in
  (* 2. merge peer views *)
  let oal =
    Proc_set.fold
      (fun m oal ->
        match Pmap.find_opt m s.peer_views with
        | Some { pv_view; _ } -> Oal.merge ~local:oal ~incoming:pv_view
        | None -> oal)
      new_group oal
  in
  (* 3. classify undeliverable proposals *)
  let highest_known = Oal.highest_ordinal oal in
  let classified =
    Undeliverable.classify ~oal ~departed ~highest_known_ordinal:highest_known
  in
  let oal = Undeliverable.apply ~oal classified in
  (* 4. append dpd descriptors reported by new members (and self) *)
  let dpd_all =
    let own = List.map (fun info -> (info, s.self)) (Core.dpd s.core) in
    Proc_set.fold
      (fun m acc ->
        match Pmap.find_opt m s.peer_views with
        | Some { pv_dpd; _ } ->
          List.map (fun info -> (info, m)) pv_dpd @ acc
        | None -> acc)
      new_group own
  in
  let oal =
    List.fold_left
      (fun oal ((info : Oal.update_info), reporter) ->
        if Oal.mem_update oal info.Oal.proposal_id then
          Oal.ack_update oal info.Oal.proposal_id reporter
        else
          fst
            (Oal.append_update oal info
               ~acks:(Proc_set.singleton reporter)))
      oal dpd_all
  in
  let s = set_oal s oal in
  (* 5. block further proposals from departed members for one cycle and
     purge marked payloads *)
  let expires = Time.add clock (Params.cycle (params s)) in
  let buffers =
    Proc_set.fold
      (fun q buffers -> Buffers.block_origin buffers q ~expires)
      departed (buffers_of s)
  in
  let s = set_buffers s (Buffers.purge_marked buffers ~now:clock) in
  (* 6. order surviving pending proposals, filtering departed-origin
     ones that the pending rules condemn *)
  let undeliv_ordinals =
    List.filter_map
      (fun e -> if e.Oal.undeliverable then Some e.Oal.ordinal else None)
      (Oal.entries (oal_of s))
  in
  let s =
    let buffers =
      List.fold_left
        (fun buffers (p : 'u Proposal.t) ->
          let origin = p.Proposal.id.Proposal.origin in
          if
            Proc_set.mem origin departed
            && (not (Oal.mem_update (oal_of s) p.Proposal.id))
            && Undeliverable.pending_category
                 ~undeliverable_ordinals:undeliv_ordinals
                 ~highest_known_ordinal:highest_known
                 ~semantics:p.Proposal.semantics ~hdo:p.Proposal.hdo
               <> None
          then Buffers.mark_undeliverable buffers p.Proposal.id ~expires
          else buffers)
        (buffers_of s)
        (Buffers.stored (buffers_of s))
    in
    set_buffers s buffers
  in
  let s = { s with core = Core.order_pending s.core ~now:clock } in
  (* 7. membership descriptor and adoption *)
  let group_id = Group_id.succ s.group_id in
  let oal, _ = Oal.append_membership (oal_of s) ~group:new_group ~group_id in
  let s, view_effect =
    install_view (set_oal s oal) ~clock ~group:new_group ~group_id
  in
  (* 8. housekeeping and broadcast as the new decider *)
  let s = housekeeping_oal s in
  let s, send_effects = broadcast_decision s ~clock in
  let s, deliver_effects = deliver s ~clock in
  (s, (view_effect :: send_effects) @ deliver_effects)

(* ------------------------------------------------------------------ *)
(* directive execution                                                 *)

let make_no_decision s ~clock ~suspect ~since =
  C.No_decision
    {
      nd_ts = clock;
      nd_suspect = suspect;
      nd_since = since;
      nd_view = my_view s;
      nd_dpd = Core.dpd s.core;
      nd_alive = FD.alive_list s.fd ~now:clock;
    }

let make_reconfig s ~clock ~list =
  C.Reconfig
    {
      r_ts = clock;
      r_list = list;
      r_last_decision_ts = s.last_decision_ts;
      r_view = my_view s;
      r_dpd = Core.dpd s.core;
      r_alive = FD.alive_list s.fd ~now:clock;
    }

(* Leave the group and the ring: the creator moves to join (a no-op
   when the FSM already put it there), surveillance and the decider
   role stop. *)
let enter_join s : ('u, 'app) state * ('u, 'app) eff list =
  let s, transition_effects = set_creator s CS.Join in
  let s =
    {
      s with
      decider = false;
      fd = FD.suspend s.fd;
      join_msgs = Pmap.empty;
      pending_new_group = None;
    }
  in
  ( s,
    transition_effects
    @ [
        Engine.Cancel_timer timer_expect;
        Engine.Cancel_timer timer_decide;
        Engine.Observe Excluded;
      ] )

let exec_directive s ~clock directive =
  match directive with
  | GC.Send_no_decision { suspect; since } ->
    let expires = Time.add clock (Params.cycle (params s)) in
    let s =
      set_buffers s (Buffers.block_origin (buffers_of s) suspect ~expires)
    in
    send_control s ~ring:true ~ts:clock
      (make_no_decision s ~clock ~suspect ~since)
  | GC.Exclude_and_decide { suspect } ->
    create_group s ~clock ~new_group:(Proc_set.remove suspect s.group)
  | GC.Take_over_decider -> become_decider s ~clock ~prev:s.last_decision_ts
  | GC.Resend_last_control -> (
    match s.last_control_sent with
    | Some msg -> (s, [ Engine.Broadcast msg ])
    | None -> (s, []))
  | GC.Start_reconfiguration ->
    let s = { s with decider = false; fd = FD.suspend s.fd } in
    let msg = make_reconfig s ~clock ~list:Proc_set.empty in
    let s, send_effects = send_control s ~ring:false ~ts:clock msg in
    ( s,
      Engine.Cancel_timer timer_expect
      :: Engine.Cancel_timer timer_decide
      :: send_effects )
  | GC.Adopt_decision ->
    (* performed inline by the decision handler, which has the payload *)
    (s, [])
  | GC.Enter_join -> enter_join s

let run_directives s ~clock directives =
  List.fold_left
    (fun (s, effects) directive ->
      let s, more = exec_directive s ~clock directive in
      (s, effects @ more))
    (s, []) directives

let run_fsm s ~clock event : ('u, 'app) state * GC.directive list * ('u, 'app) eff list =
  let creator, directives = GC.step (env_of s ~clock) s.creator event in
  let s, transition_effects = set_creator s creator in
  (s, directives, transition_effects)

(* ------------------------------------------------------------------ *)
(* message handlers                                                    *)

let on_submit s ~clock ~semantics payload =
  if not (member_of_current_group s) then
    (s, [ Engine.Log "submit dropped: not a group member" ])
  else begin
    let core, proposal = Core.submit s.core ~clock ~semantics payload in
    let s, deliver_effects = deliver { s with core } ~clock in
    let s, hasten_effects = hasten s ~clock in
    ( s,
      (Engine.Broadcast (C.Proposal_msg proposal) :: deliver_effects)
      @ hasten_effects )
  end

(* Only majority groups are valid membership descriptors (Section 3,
   property 5); anything else is noise from outside the failure model
   and is ignored defensively. *)
let valid_membership s latest =
  match latest with
  | Some (_, grp, gid) when Proc_set.is_majority grp ~n:s.n ->
    Some (grp, gid)
  | Some _ | None -> None

(* Adoption of an accepted decision message: merge the oal, learn
   ordinals, adopt any newer membership descriptor, recover losses,
   deliver. Returns the updated state plus whether the decision named a
   new group that excludes this process. *)
let adopt_decision s ~clock ~(d : C.decision) =
  let core =
    (* A decision of a later incarnation (strictly higher formation
       epoch) carries the fresh history of a group formed after this
       process's group died. The local history must not be merged into
       it ordinal by ordinal — stale descriptors would land above the
       new formation and break epoch monotonicity — so it is replaced
       wholesale, as a state transfer replaces it. *)
    let incoming_epoch =
      match Oal.latest_membership d.C.d_oal with
      | Some (_, _, gid) -> Group_id.epoch gid
      | None -> 0
    in
    if incoming_epoch > Group_id.epoch s.group_id then
      Core.adopt s.core d.C.d_oal
    else Core.merge s.core ~incoming:d.C.d_oal
  in
  let s = { s with core } in
  let s, view_effects, excluded =
    match valid_membership s (Core.latest_membership s.core) with
    | Some (grp, gid) when Group_id.later gid ~than:s.group_id ->
      if Proc_set.mem s.self grp then
        if CS.kind_of s.creator = CS.KJoin && Group_id.seq gid > 0 then
          (* joining an existing group: adoption waits for the state
             transfer, which carries the replica state *)
          (s, [], false)
        else begin
          let s, view = install_view s ~clock ~group:grp ~group_id:gid in
          (s, [ view ], false)
        end
      else (s, [], true)
    | Some _ | None -> (s, [], false)
  in
  let s =
    { s with last_decision_ts = Time.max s.last_decision_ts d.C.d_ts }
  in
  let s = housekeeping_oal s in
  let nacks = recover_missing s in
  let s, deliver_effects = deliver s ~clock in
  (s, view_effects @ nacks @ deliver_effects, excluded)

(* Should the FSM treat this decision as "contains me"? A decision with
   no newer membership descriptor keeps the current group. While in the
   join state, a membership descriptor of a later group (id > 0) is
   only actionable once the state transfer arrives. *)
let decision_in_new_group s (d : C.decision) =
  match valid_membership s (Oal.latest_membership d.C.d_oal) with
  | Some (grp, gid) when Group_id.later gid ~than:s.group_id ->
    if Proc_set.mem s.self grp then
      not (CS.kind_of s.creator = CS.KJoin && Group_id.seq gid > 0)
    else false
  | Some _ | None -> Group_id.is_known s.group_id

(* Track decisions from the members of a new group that excluded us (the
   delayed switch to join in the n-failure state). *)
let track_exclusion s ~src (d : C.decision) =
  match valid_membership s (Oal.latest_membership d.C.d_oal) with
  | Some (grp, gid)
    when Group_id.later gid ~than:s.group_id
         && not (Proc_set.mem s.self grp) ->
    let gid0, grp0, heard =
      match s.pending_new_group with
      | Some (g_id, g, h) when Group_id.compare g_id gid >= 0 -> (g_id, g, h)
      | Some _ | None -> (gid, grp, Proc_set.empty)
    in
    let heard =
      if Proc_set.mem src grp0 then Proc_set.add src heard else heard
    in
    let complete = Proc_set.equal heard grp0 in
    ({ s with pending_new_group = Some (gid0, grp0, heard) }, complete)
  | Some _ | None -> (s, false)

let realign_surveillance s ~from ~ts =
  (* after accepting a ring control message (decision / no-decision)
     from a group member, expect its successor next — unless the ring is
     suspended (join, n-failure). When the successor is this process
     itself there is nobody to surveil: our own next send re-arms the
     surveillance (and if we fail to send, the others exclude us). *)
  if not (CS.up_to_date s.creator) then s
  else
    match Proc_set.successor_in s.group from ~n:s.n with
    | Some next when Proc_id.equal next s.self ->
      { s with fd = FD.suspend s.fd }
    | Some next -> { s with fd = FD.expect s.fd ~sender:next ~base:ts }
    | None -> s

let current_suspect s =
  match s.creator with
  | CS.Wrong_suspicion { suspect }
  | CS.One_failure_receive { suspect; _ }
  | CS.One_failure_send { suspect; _ } ->
    Some suspect
  | CS.Join | CS.Failure_free | CS.N_failure _ -> None

let on_decision s ~clock ~src (d : C.decision) =
  (* a decision announcing a newer group that contains us is an election
     outcome: it is authoritative regardless of where our ring pointer
     was when the election ran *)
  let election_outcome =
    match valid_membership s (Oal.latest_membership d.C.d_oal) with
    | Some (grp, gid) ->
      Group_id.later gid ~than:s.group_id && Proc_set.mem s.self grp
    | None -> false
  in
  let from_expected =
    FD.satisfied_by s.fd ~from:src ~ts:d.C.d_ts || election_outcome
  in
  let from_suspect =
    match current_suspect s with
    | Some q -> Proc_id.equal q src
    | None -> false
  in
  let in_new_group = decision_in_new_group s d in
  let s, directives, transition_effects =
    run_fsm s ~clock
      (GC.Decision_received { from = src; from_expected; from_suspect; in_new_group })
  in
  let adopt = List.mem GC.Adopt_decision directives in
  let s, adopt_effects, excluded =
    if adopt then adopt_decision s ~clock ~d else (s, [], false)
  in
  (* delayed join switch bookkeeping while in n-failure *)
  let s, all_heard =
    match CS.kind_of s.creator with
    | CS.KN_failure when excluded -> track_exclusion s ~src d
    | _ -> (s, false)
  in
  let s, directives2, transition_effects2 =
    if all_heard then run_fsm s ~clock GC.All_new_members_heard
    else (s, [], [])
  in
  let s, directive_effects =
    run_directives s ~clock (directives @ directives2)
  in
  (* surveillance and decider handover *)
  let s = realign_surveillance s ~from:src ~ts:d.C.d_ts in
  let s, decider_effects =
    match CS.kind_of s.creator with
    | CS.KFailure_free
      when member_of_current_group s
           && (match Proc_set.successor_in s.group src ~n:s.n with
              | Some next -> Proc_id.equal next s.self
              | None -> false) ->
      become_decider s ~clock ~prev:s.last_decision_ts
    | _ -> (s, [])
  in
  ( s,
    transition_effects @ adopt_effects @ transition_effects2
    @ directive_effects @ decider_effects @ sync_expect_timer s )

(* Record the view and dpd descriptors a no-decision or reconfiguration
   message carries, for [create_group] to merge. *)
let note_peer_view s ~src ~view ~dpd =
  {
    s with
    peer_views = Pmap.add src { pv_view = view; pv_dpd = dpd } s.peer_views;
  }

let on_no_decision s ~clock ~src (nd : 'u C.no_decision) =
  let s = note_peer_view s ~src ~view:nd.C.nd_view ~dpd:nd.C.nd_dpd in
  (* a no-decision about a process that is no longer (or not yet) in our
     group is from an already-settled election: record the view above,
     but do not re-open the suspicion *)
  if
    Group_id.is_known s.group_id
    && not (Proc_set.mem nd.C.nd_suspect s.group)
  then (s, [])
  else
  let concur =
    not (FD.heard_after s.fd nd.C.nd_suspect ~since:nd.C.nd_since)
  in
  let from_ring_predecessor =
    match Proc_set.predecessor_in s.group s.self ~n:s.n with
    | Some pred -> Proc_id.equal pred src
    | None -> false
  in
  let s = realign_surveillance s ~from:src ~ts:nd.C.nd_ts in
  let s, directives, transition_effects =
    run_fsm s ~clock
      (GC.Nd_received
         {
           from = src;
           suspect = nd.C.nd_suspect;
           since = nd.C.nd_since;
           concur;
           from_ring_predecessor;
         })
  in
  let s, directive_effects = run_directives s ~clock directives in
  (s, transition_effects @ directive_effects @ sync_expect_timer s)

let on_join_msg s ~src (j : C.join) =
  let s =
    {
      s with
      join_msgs =
        Pmap.add src
          { ji_ts = j.C.j_ts; ji_list = j.C.j_list; ji_epoch = j.C.j_epoch }
          s.join_msgs;
      (* epoch ratchet: a process recovering into a team whose other
         recovered members persisted a later epoch must form at that
         later epoch, or mixed-epoch join lists would never agree *)
      form_epoch = max s.form_epoch j.C.j_epoch;
    }
  in
  (* Epoch-join rescue. A member stuck in the n-failure state has an
     election that cannot complete (the survivors of its group are
     fewer than a team majority — only possible after its group lost
     members to crashes). A join message at a strictly higher epoch
     than its own group proves one of those crashed members is back
     and forming the group's next incarnation: abandon the dead
     election and join it. States with a live ring (failure-free and
     the failure states) never react — a recovering process rejoins a
     functioning group through state transfer, not by tearing it
     down. *)
  match CS.kind_of s.creator with
  | CS.KN_failure when j.C.j_epoch > Group_id.epoch s.group_id -> enter_join s
  | _ -> (s, [])

let on_reconfig s ~clock ~src (r : 'u C.reconfig) =
  let s = note_peer_view s ~src ~view:r.C.r_view ~dpd:r.C.r_dpd in
  let s =
    {
      s with
      reconfig_msgs =
        Pmap.add src
          {
            rc_ts = r.C.r_ts;
            rc_list = r.C.r_list;
            rc_last_decision_ts = r.C.r_last_decision_ts;
          }
          s.reconfig_msgs;
    }
  in
  let from_expected = FD.satisfied_by s.fd ~from:src ~ts:r.C.r_ts in
  let from_member =
    Group_id.is_known s.group_id && Proc_set.mem src s.group
  in
  let s, directives, transition_effects =
    run_fsm s ~clock (GC.Reconfig_received { from_expected; from_member })
  in
  let s, directive_effects = run_directives s ~clock directives in
  (s, transition_effects @ directive_effects @ sync_expect_timer s)

let on_state_transfer s ~clock ~src (st : ('u, 'app) C.state_transfer) =
  if CS.kind_of s.creator <> CS.KJoin then (s, [])
  else if not (Proc_set.mem s.self st.C.st_group) then (s, [])
  else if not (Proc_set.is_majority st.C.st_group ~n:s.n) then (s, [])
  else if Group_id.compare st.C.st_group_id s.group_id < 0 then (s, [])
  else begin
    (* adopt the transferred replica state (merging any oal information
       absorbed while waiting — decisions may have raced the transfer),
       then fold back any proposals we buffered *)
    let buffers =
      List.fold_left
        (fun buffers p -> fst (Buffers.store buffers p))
        st.C.st_buffers
        (Buffers.stored (buffers_of s))
    in
    let oal =
      (* same epoch: keep oal information absorbed while waiting
         (decisions may have raced the transfer); later incarnation: the
         local history is from a dead epoch — replace it *)
      if Group_id.epoch st.C.st_group_id > Group_id.epoch s.group_id then
        st.C.st_oal
      else Oal.merge ~local:st.C.st_oal ~incoming:(oal_of s)
    in
    let s =
      {
        s with
        core = Core.set_oal (Core.set_buffers s.core buffers) oal;
        app = st.C.st_app;
        pending_new_group = None;
      }
    in
    let s, view_effect =
      install_view s ~clock ~group:st.C.st_group ~group_id:st.C.st_group_id
    in
    let s, transition_effects = set_creator s CS.Failure_free in
    let s = realign_surveillance s ~from:src ~ts:st.C.st_ts in
    (* the decision that integrated us also advanced the decider role:
       when we are the integrator's group successor, the role is ours *)
    let s, decider_effects =
      match Proc_set.successor_in s.group src ~n:s.n with
      | Some next when Proc_id.equal next s.self ->
        become_decider s ~clock ~prev:(Time.max s.last_decision_ts st.C.st_ts)
      | Some _ | None -> (s, [])
    in
    let s, deliver_effects = deliver s ~clock in
    ( s,
      transition_effects @ (view_effect :: decider_effects) @ deliver_effects
      @ sync_expect_timer s )
  end

(* Lifeguard local health: a timer that fires well past its due time is
   evidence that this process itself is running slowly. No-op unless
   adaptive suspicion is on. *)
let note_if_late s ~clock ~due =
  match due with
  | Some due
    when Time.compare (Time.sub clock due) (Time.mul (params s).Params.sigma 4)
         > 0 ->
    { s with fd = FD.note_late_evidence s.fd ~now:clock }
  | Some _ | None -> s

(* ------------------------------------------------------------------ *)
(* slotted protocols: join and reconfiguration                         *)

(* Self plus every sender of a message in [msgs] sent within the last
   n-1 slots. *)
let heard_list s ~clock msgs ~sent_at =
  Pmap.fold
    (fun p m acc ->
      if
        Slots.in_last_k_slots (params s) ~now:clock ~sent_at:(sent_at m)
          ~k:(s.n - 1)
      then Proc_set.add p acc
      else acc)
    msgs (Proc_set.singleton s.self)

(* The quorum rule of both slotted elections: every member of [set]
   other than self sent a message in [msgs], in its own latest slot,
   that [agrees]. *)
let all_agree s ~clock msgs set ~sent_at ~agrees =
  Proc_set.for_all
    (fun p ->
      Proc_id.equal p s.self
      ||
      match Pmap.find_opt p msgs with
      | Some m ->
        Slots.was_own_latest_slot (params s) ~sender:p ~sent_at:(sent_at m)
          ~now:clock
        && agrees m
      | None -> false)
    set

let join_list_of s ~clock =
  (* only join messages of this process's own formation epoch count: a
     sender still at an older epoch (not yet ratcheted) must not land in
     the join-list a formation is based on *)
  heard_list s ~clock
    (Pmap.filter (fun _ j -> j.ji_epoch = s.form_epoch) s.join_msgs)
    ~sent_at:(fun j -> j.ji_ts)

let reconfig_list_of s ~clock =
  heard_list s ~clock s.reconfig_msgs ~sent_at:(fun r -> r.rc_ts)

(* Initial group formation (Section 4.2): at system start, a process
   becomes the first decider when a majority sent join messages, each in
   its own latest slot, all carrying exactly this process's join-list.

   Epoch awareness (closing chaos counterexample chaos-11): this rule
   also fires after a mass crash-and-recovery, where a majority of
   recovered processes is locally indistinguishable from a starting
   system. Formation therefore happens at [s.form_epoch] — strictly
   above any epoch this incarnation (or, via the join-message ratchet,
   any formation peer) ever persisted — so the re-formed group's ids
   compare later than every view the previous epoch could have issued
   and can no longer collide with views held by first-epoch survivors.
   Mass-recovery liveness is preserved: a recovered majority still
   re-forms, just one epoch up. Safety of formation itself rests on the
   same counting argument as before: a formation quorum and a live
   group both need a majority of the team, members of a live group are
   never in the join state, so the two cannot coexist. *)
let try_initial_create s ~clock =
  if Group_id.is_known s.group_id then None
  else begin
    let jl = join_list_of s ~clock in
    let ok =
      Proc_set.is_majority jl ~n:s.n
      && all_agree s ~clock s.join_msgs jl
           ~sent_at:(fun j -> j.ji_ts)
           ~agrees:(fun j -> Proc_set.equal j.ji_list jl)
    in
    if ok then Some jl else None
  end

let create_initial_group s ~clock ~group =
  let group_id = Group_id.form ~epoch:s.form_epoch in
  let oal, _ = Oal.append_membership (oal_of s) ~group ~group_id in
  let s, view_effect = install_view (set_oal s oal) ~clock ~group ~group_id in
  let s, transition_effects = set_creator s CS.Failure_free in
  let s, send_effects = broadcast_decision s ~clock in
  ( s,
    transition_effects @ (view_effect :: send_effects) @ sync_expect_timer s )

(* Reconfiguration election (Section 4.2): during its slot, a process in
   n-failure that proposed the highest decision timestamp creates a new
   group from a majority S that sent matching reconfiguration messages
   in their latest slots and belonged to the last group. *)
let try_reconfig_create s ~clock ~wait_until_slot =
  let current_slot = Slots.index (params s) clock in
  if current_slot < wait_until_slot then None
  else begin
    let rl = reconfig_list_of s ~clock in
    (* The new group S is chosen from the heard set, not equal to it: a
       stale ex-member (excluded in an earlier view, now running its own
       hopeless election) also broadcasts reconfiguration messages and
       lands in rl, but only processes of the last group this process
       knows are eligible. Requiring rl itself to be inside the group
       would let one such straggler veto the election forever. *)
    let candidates = Proc_set.inter rl s.group in
    let ok =
      Proc_set.is_majority candidates ~n:s.n
      && Group_id.is_known s.group_id
      && all_agree s ~clock s.reconfig_msgs candidates
           ~sent_at:(fun r -> r.rc_ts)
           ~agrees:(fun r ->
             Proc_set.equal r.rc_list rl
             && Time.compare r.rc_last_decision_ts s.last_decision_ts <= 0)
    in
    if ok then Some candidates else None
  end

let on_slot s ~clock : ('u, 'app) state * ('u, 'app) eff list =
  let next = Slots.next_own_slot (params s) ~self:s.self ~now:clock in
  let rearm = Engine.Set_timer { key = timer_slot; at_clock = next } in
  let s = set_buffers s (Buffers.expire_marks (buffers_of s) ~now:clock) in
  let s, effects =
    match s.creator with
    | CS.Join -> (
      match try_initial_create s ~clock with
      | Some group -> create_initial_group s ~clock ~group
      | None ->
        let msg =
          C.Join_msg
            {
              j_ts = clock;
              j_list = join_list_of s ~clock;
              j_alive = FD.alive_list s.fd ~now:clock;
              j_epoch = s.form_epoch;
            }
        in
        let s, send_effects = send_control s ~ring:false ~ts:clock msg in
        (s, send_effects))
    | CS.N_failure { wait_until_slot } -> (
      match try_reconfig_create s ~clock ~wait_until_slot with
      | Some new_group ->
        let s, transition_effects = set_creator s CS.Failure_free in
        let s, create_effects = create_group s ~clock ~new_group in
        (s, transition_effects @ create_effects @ sync_expect_timer s)
      | None ->
        let current_slot = Slots.index (params s) clock in
        let list =
          if current_slot < wait_until_slot then Proc_set.empty
          else reconfig_list_of s ~clock
        in
        let msg = make_reconfig s ~clock ~list in
        let s, send_effects = send_control s ~ring:false ~ts:clock msg in
        (s, send_effects))
    | CS.Failure_free | CS.Wrong_suspicion _ | CS.One_failure_receive _
    | CS.One_failure_send _ ->
      (s, [])
  in
  (s, rearm :: effects)

let on_expect_timeout s ~clock =
  (* Charging lateness evidence first stretches the in-force timeout,
     which can move the deadline back into the future — the
     timeout_suspect check below then comes up empty and the timer is
     simply re-armed, so an overloaded member doubts itself instead of
     suspecting a timely peer. *)
  let s = note_if_late s ~clock ~due:(FD.deadline s.fd) in
  match FD.timeout_suspect s.fd ~now:clock with
  | None -> (s, sync_expect_timer s)
  | Some suspect when Proc_id.equal suspect s.self ->
    (* never suspect ourselves: if we were due to send and did not, the
       other members will exclude us *)
    let s = { s with fd = FD.suspend s.fd } in
    (s, sync_expect_timer s)
  | Some suspect ->
    let since =
      match FD.deadline s.fd with
      | Some dl -> Time.sub dl (FD.timeout s.fd)
      | None -> clock
    in
    let suspected_effect = Engine.Observe (Suspected { suspect }) in
    let s, directives, transition_effects =
      run_fsm s ~clock (GC.Fd_timeout { suspect; since })
    in
    (* unless the FSM suspended the ring, keep watching: the suspect's
       successor must now produce a control message *)
    let s =
      if not (CS.up_to_date s.creator) then s
      else
        match Proc_set.successor_in s.group suspect ~n:s.n with
        | Some next -> { s with fd = FD.expect s.fd ~sender:next ~base:clock }
        | None -> s
    in
    let s, directive_effects = run_directives s ~clock directives in
    ( s,
      (suspected_effect :: transition_effects)
      @ directive_effects @ sync_expect_timer s )

(* ------------------------------------------------------------------ *)
(* automaton wiring                                                    *)

let init cfg ~self ~n ~clock ~incarnation:_ =
  if n <> cfg.params.Params.n then
    invalid_arg "Member: engine team size differs from Params.n";
  (* a recovered incarnation never cold-forms at an epoch it already
     lived through: its formation epoch starts one above the persisted
     one. The replica state itself is not restored — a rejoining
     process goes through the join protocol and state transfer exactly
     like a fresh joiner. *)
  let form_epoch =
    match cfg.restore ~self ~now:clock with
    | Some { last_group_id; _ } -> Group_id.epoch last_group_id + 1
    | None -> 0
  in
  let s =
    {
      cfg;
      self;
      n;
      creator = CS.Join;
      group = Proc_set.empty;
      group_id = Group_id.none;
      form_epoch;
      fd = FD.create cfg.params ~self;
      core = Core.create ~self ~n;
      last_decision_ts = Time.zero;
      decider = false;
      hasten = None;
      last_control_sent = None;
      app = cfg.initial_app;
      join_msgs = Pmap.empty;
      reconfig_msgs = Pmap.empty;
      peer_views = Pmap.empty;
      alive_views = Pmap.empty;
      pending_new_group = None;
    }
  in
  (* act in the current slot if it is ours, and arm the next one *)
  if Proc_id.equal (Slots.owner_at cfg.params clock) self then on_slot s ~clock
  else
    ( s,
      [
        Engine.Set_timer
          {
            key = timer_slot;
            at_clock = Slots.next_own_slot cfg.params ~self ~now:clock;
          };
      ] )

let on_receive s ~clock ~src msg =
  match msg with
  | C.Submit { semantics; payload } -> on_submit s ~clock ~semantics payload
  | C.Proposal_msg p | C.Retransmit p -> (
    match Core.receive s.core ~now:clock p with
    | Some core ->
      let s, deliver_effects = deliver { s with core } ~clock in
      if Core.unordered core p.Proposal.id ~now:clock then
        let s, hasten_effects = hasten s ~clock in
        (s, deliver_effects @ hasten_effects)
      else (s, deliver_effects)
    | None -> (s, []))
  | C.Nack { missing } ->
    ( s,
      List.map
        (fun p -> Engine.Send (src, C.Retransmit p))
        (Core.retransmits s.core missing) )
  | C.State_transfer st -> on_state_transfer s ~clock ~src st
  | C.Decision _ | C.No_decision _ | C.Join_msg _ | C.Reconfig _ -> (
    match C.control_ts msg with
    | None -> (s, [])
    | Some ts -> (
      let fd, verdict = FD.admit s.fd ~from:src ~ts ~now:clock in
      match verdict with
      | FD.Late ->
        (* keep the detector: a late rejection is local-health evidence
           under adaptive suspicion (identical state otherwise) *)
        ({ s with fd }, [ Engine.Observe (Late_rejected { from = src }) ])
      | FD.Stale -> (s, [])
      | FD.Fresh -> (
        let s = { s with fd } in
        let s =
          match C.alive_of msg with
          | Some alive ->
            {
              s with
              alive_views =
                Pmap.add src { ai_ts = ts; ai_alive = alive } s.alive_views;
            }
          | None -> s
        in
        match msg with
        | C.Decision d -> on_decision s ~clock ~src d
        | C.No_decision nd -> on_no_decision s ~clock ~src nd
        | C.Join_msg j -> on_join_msg s ~src j
        | C.Reconfig r -> on_reconfig s ~clock ~src r
        | C.Submit _ | C.Proposal_msg _ | C.Retransmit _ | C.Nack _
        | C.State_transfer _ ->
          (s, []))))

let on_timer s ~clock ~key =
  if key = timer_slot then on_slot s ~clock
  else if key = timer_expect then on_expect_timeout s ~clock
  else if key = timer_decide then begin
    if s.decider && CS.kind_of s.creator = CS.KFailure_free then
      send_decision s ~clock
    else (s, [])
  end
  else (s, [])

let automaton cfg =
  {
    Engine.name = "timewheel-member";
    init = (fun ~self ~n ~clock ~incarnation -> init cfg ~self ~n ~clock ~incarnation);
    on_receive;
    on_timer;
  }
