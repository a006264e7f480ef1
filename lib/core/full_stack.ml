open Tasim

type ('u, 'app) msg =
  | Cs of Clocksync.Protocol.msg
  | Gc of ('u, 'app) Control_msg.t

let kind_of_msg = function
  | Cs m -> Clocksync.Protocol.kind_of_msg m
  | Gc m -> Control_msg.kind m

type 'u obs =
  | Member_obs of 'u Member.obs
  | Sync_obs of Clocksync.Protocol.obs
  | Member_started

(* Engine timer-key namespace: the clocksync automaton uses small keys;
   member keys are shifted; one private key polls for first
   synchronization. *)
let key_start_poll = 5
let member_key_base = 10
let start_poll_period = Time.of_ms 50
let retry_period = Time.of_ms 50

module Imap = Map.Make (Int)

type ('u, 'app) state = {
  member_cfg : ('u, 'app) Member.config;
  self : Proc_id.t;
  n : int;
  cs : Clocksync.Protocol.state;
  member : ('u, 'app) Member.state option;
  member_timers : Time.t Imap.t;
      (* member timer key -> synchronized-time deadline (the engine
         timer may be a hardware-time approximation or a retry poll) *)
}

let member s = s.member
let submit ~semantics payload = Gc (Member.submit ~semantics payload)

let sync_clock_of s = Clocksync.Protocol.sync_clock s.cs

(* Translate one member effect into engine effects, tracking timers. *)
let translate_member_effect s ~now_local eff =
  match eff with
  | Engine.Send (dst, m) -> (s, [ Engine.Send (dst, Gc m) ])
  | Engine.Broadcast m -> (s, [ Engine.Broadcast (Gc m) ])
  | Engine.Observe o -> (s, [ Engine.Observe (Member_obs o) ])
  | Engine.Log l -> (s, [ Engine.Log l ])
  | Engine.Cancel_timer key ->
    ( { s with member_timers = Imap.remove key s.member_timers },
      [ Engine.Cancel_timer (member_key_base + key) ] )
  | Engine.Set_timer { key; at_clock = sync_deadline } ->
    let s =
      { s with member_timers = Imap.add key sync_deadline s.member_timers }
    in
    let hw =
      match
        Clocksync.Sync_clock.local_of_sync (sync_clock_of s)
          ~sync:sync_deadline ~now_local
      with
      | Some hw -> Time.max hw now_local
      | None -> Time.add now_local retry_period
    in
    (s, [ Engine.Set_timer { key = member_key_base + key; at_clock = hw } ])

let translate_member_step s ~now_local (member_state, effects) =
  let s = { s with member = Some member_state } in
  List.fold_left
    (fun (s, acc) eff ->
      let s, effs = translate_member_effect s ~now_local eff in
      (s, acc @ effs))
    (s, []) effects

let cs_effects effects =
  List.map
    (fun eff ->
      match eff with
      | Engine.Send (dst, m) -> Engine.Send (dst, Cs m)
      | Engine.Broadcast m -> Engine.Broadcast (Cs m)
      | Engine.Observe o -> Engine.Observe (Sync_obs o)
      | Engine.Log l -> Engine.Log l
      | Engine.Set_timer t -> Engine.Set_timer t
      | Engine.Cancel_timer k -> Engine.Cancel_timer k)
    effects

(* Start the member half once the clock synchronizes for the first
   time. *)
let try_start_member s ~now_local ~incarnation =
  match Clocksync.Protocol.sync_reading s.cs ~now_local with
  | None ->
    ( s,
      [
        Engine.Set_timer
          {
            key = key_start_poll;
            at_clock = Time.add now_local start_poll_period;
          };
      ] )
  | Some sync_now ->
    let member_automaton = Member.automaton s.member_cfg in
    let step =
      member_automaton.Engine.init ~self:s.self ~n:s.n ~clock:sync_now
        ~incarnation
    in
    let s, effects = translate_member_step s ~now_local step in
    (s, (Engine.Observe Member_started :: effects))

let init member_cfg cs_cfg ~self ~n ~clock ~incarnation =
  let cs_automaton = Clocksync.Protocol.automaton cs_cfg in
  let cs, cs_effs = cs_automaton.Engine.init ~self ~n ~clock ~incarnation in
  let s =
    { member_cfg; self; n; cs; member = None; member_timers = Imap.empty }
  in
  let s, start_effs = try_start_member s ~now_local:clock ~incarnation in
  (s, cs_effects cs_effs @ start_effs)

let member_automaton_of s = Member.automaton s.member_cfg

let on_receive cs_cfg s ~clock ~src msg =
  let _ = cs_cfg in
  match msg with
  | Cs m ->
    let cs_automaton = Clocksync.Protocol.automaton cs_cfg in
    let cs, effs = cs_automaton.Engine.on_receive s.cs ~clock ~src m in
    ({ s with cs }, cs_effects effs)
  | Gc m -> (
    match s.member with
    | None -> (s, []) (* not started: no synchronized clock yet *)
    | Some member_state -> (
      match Clocksync.Protocol.sync_reading s.cs ~now_local:clock with
      | None ->
        (* unsynchronized: fail-aware drop; the group will exclude us *)
        (s, [ Engine.Log "gc message dropped: clock not synchronized" ])
      | Some sync_now ->
        let automaton = member_automaton_of s in
        translate_member_step s ~now_local:clock
          (automaton.Engine.on_receive member_state ~clock:sync_now ~src m)))

let on_timer cs_cfg s ~clock ~key =
  if key = key_start_poll then begin
    match s.member with
    | Some _ -> (s, [])
    | None -> try_start_member s ~now_local:clock ~incarnation:0
  end
  else if key >= member_key_base then begin
    let member_key = key - member_key_base in
    match (s.member, Imap.find_opt member_key s.member_timers) with
    | None, _ | _, None -> (s, [])
    | Some member_state, Some sync_deadline -> (
      match Clocksync.Protocol.sync_reading s.cs ~now_local:clock with
      | None ->
        (* cannot place the deadline on the synchronized time base right
           now: retry shortly *)
        ( s,
          [
            Engine.Set_timer
              { key; at_clock = Time.add clock retry_period };
          ] )
      | Some sync_now ->
        if Time.compare sync_now sync_deadline >= 0 then begin
          let s =
            { s with member_timers = Imap.remove member_key s.member_timers }
          in
          let automaton = member_automaton_of s in
          translate_member_step s ~now_local:clock
            (automaton.Engine.on_timer member_state ~clock:sync_now
               ~key:member_key)
        end
        else begin
          (* the hardware approximation fired early (clock drift or a
             resync): re-translate *)
          let hw =
            match
              Clocksync.Sync_clock.local_of_sync (sync_clock_of s)
                ~sync:sync_deadline ~now_local:clock
            with
            | Some hw -> Time.max hw (Time.add clock (Time.of_us 100))
            | None -> Time.add clock retry_period
          in
          (s, [ Engine.Set_timer { key; at_clock = hw } ])
        end)
  end
  else begin
    let cs_automaton = Clocksync.Protocol.automaton cs_cfg in
    let cs, effs = cs_automaton.Engine.on_timer s.cs ~clock ~key in
    ({ s with cs }, cs_effects effs)
  end

let automaton member_cfg cs_cfg =
  {
    Engine.name = "timewheel-full-stack";
    init =
      (fun ~self ~n ~clock ~incarnation ->
        init member_cfg cs_cfg ~self ~n ~clock ~incarnation);
    on_receive = (fun s ~clock ~src msg -> on_receive cs_cfg s ~clock ~src msg);
    on_timer = (fun s ~clock ~key -> on_timer cs_cfg s ~clock ~key);
  }
