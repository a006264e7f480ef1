open Tasim

(* wheel resolution: a timer fires on the first tick boundary at or
   after its due time, so the tick is the slop it adds to every
   wake-up. [Timer_wheel.advance] jumps over empty ticks, so a fine
   tick costs nothing over long idle stretches; 20 µs is below the
   kernel's default timer slack (50 µs), which the poll wait adds
   anyway. *)
let wheel_tick_us = 20

type 'm ev =
  | Ev_recv of Proc_id.t * 'm
  | Ev_timer of { key : int; gen : int; due : Time.t }

let kind_recv = 0
let kind_timer = 1

type timer_slot = {
  mutable wheel_id : Eventloop.Timer_wheel.timer_id option;
  mutable gen : int;
}

type ('s, 'm, 'obs) t = {
  automaton : ('s, 'm, 'obs) Engine.automaton;
  clock : Clock.t;
  mk_transport : Stats.t -> 'm Transport.t;
  stats : Stats.t;
  timer_fires : Stats.counter;
  timer_late_us : Stats.counter;
  wheel : Eventloop.Timer_wheel.t;
  dispatcher : 'm ev Eventloop.Dispatcher.t;
  timers : (int, timer_slot) Hashtbl.t;
  on_obs : Time.t -> 'obs -> unit;
  on_log : string -> unit;
  mutable transport : 'm Transport.t;
  mutable state : 's option;
  mutable incarnation : int;
  mutable paused : bool;
}

let self t = Transport.self t.transport
let stats t = t.stats
let state t = t.state
let is_up t = t.state <> None
let incarnation t = t.incarnation

let is_paused t = t.paused

let fd t =
  if t.state = None || t.paused || Transport.is_closed t.transport then None
  else Some (Transport.fd t.transport)

let slot_of t key =
  match Hashtbl.find_opt t.timers key with
  | Some slot -> slot
  | None ->
    let slot = { wheel_id = None; gen = 0 } in
    Hashtbl.replace t.timers key slot;
    slot

let cancel_slot t slot =
  (match slot.wheel_id with
  | Some id -> ignore (Eventloop.Timer_wheel.cancel t.wheel id)
  | None -> ());
  slot.wheel_id <- None;
  slot.gen <- slot.gen + 1

let set_timer t ~key ~at_clock =
  let slot = slot_of t key in
  cancel_slot t slot;
  let gen = slot.gen in
  let id =
    Eventloop.Timer_wheel.schedule t.wheel ~at:(Time.to_us at_clock)
      (fun () ->
        slot.wheel_id <- None;
        Eventloop.Dispatcher.post t.dispatcher ~kind:kind_timer
          (Ev_timer { key; gen; due = at_clock }))
  in
  slot.wheel_id <- Some id

let apply_effect t eff =
  match eff with
  | Engine.Send (dst, m) -> Transport.send t.transport ~dst m
  | Engine.Broadcast m -> Transport.broadcast t.transport m
  | Engine.Set_timer { key; at_clock } -> set_timer t ~key ~at_clock
  | Engine.Cancel_timer key -> (
    match Hashtbl.find_opt t.timers key with
    | Some slot -> cancel_slot t slot
    | None -> ())
  | Engine.Observe o -> t.on_obs (Clock.now t.clock) o
  | Engine.Log line -> t.on_log line

let step t f =
  match t.state with
  | None -> ()
  | Some s ->
    let clock = Clock.now t.clock in
    let s, effects = f s ~clock in
    t.state <- Some s;
    List.iter (apply_effect t) effects

let handle t ev =
  match ev with
  | Ev_recv (src, m) ->
    step t (fun s ~clock -> t.automaton.Engine.on_receive s ~clock ~src m)
  | Ev_timer { key; gen; due } -> (
    (* a re-arm or cancellation after this fire was posted makes it
       stale: the engine contract is that re-arming replaces any
       pending occurrence *)
    match Hashtbl.find_opt t.timers key with
    | Some slot when slot.gen = gen ->
      step t (fun s ~clock ->
          Stats.bump t.timer_fires;
          Stats.bump_by t.timer_late_us (Time.to_us (Time.sub clock due));
          t.automaton.Engine.on_timer s ~clock ~key)
    | Some _ | None -> Stats.incr t.stats "live:timer-stale")

let create ~automaton ~clock ~mk_transport ?(on_obs = fun _ _ -> ())
    ?(on_log = fun _ -> ()) () =
  let stats = Stats.create () in
  let t =
    {
      automaton;
      clock;
      mk_transport;
      stats;
      timer_fires = Stats.counter stats "live:sched:timer-fires";
      timer_late_us = Stats.counter stats "live:sched:timer-late-us";
      wheel = Eventloop.Timer_wheel.create ~tick:wheel_tick_us ();
      dispatcher = Eventloop.Dispatcher.create ();
      timers = Hashtbl.create 16;
      on_obs;
      on_log;
      transport = mk_transport stats;
      state = None;
      incarnation = 0;
      paused = false;
    }
  in
  Eventloop.Dispatcher.register t.dispatcher ~kind:kind_recv (handle t);
  Eventloop.Dispatcher.register t.dispatcher ~kind:kind_timer (handle t);
  t

let run_init t =
  let clock = Clock.now t.clock in
  let s, effects =
    t.automaton.Engine.init ~self:(self t) ~n:(Transport.n t.transport) ~clock
      ~incarnation:t.incarnation
  in
  t.state <- Some s;
  List.iter (apply_effect t) effects;
  (* init runs outside the poll loop, so its sends (join broadcasts)
     must leave now rather than wait for the first poll's flush *)
  Transport.flush t.transport

let start t = if t.state = None then run_init t

let kill t =
  if t.state <> None then begin
    t.state <- None;
    t.paused <- false;
    Hashtbl.iter (fun _ slot -> cancel_slot t slot) t.timers;
    Hashtbl.reset t.timers;
    (* stale queued events dispatch as no-ops (state is gone); drain
       them so they cannot leak into the next incarnation *)
    ignore (Eventloop.Dispatcher.run_pending t.dispatcher);
    Transport.close t.transport;
    Stats.incr t.stats "live:kill"
  end

let restart t =
  if t.state = None then begin
    if Transport.is_closed t.transport then
      t.transport <- t.mk_transport t.stats;
    t.incarnation <- t.incarnation + 1;
    Stats.incr t.stats "live:restart";
    run_init t
  end

(* The SIGSTOP analog: a paused node's process is off the scheduler —
   it reads nothing from its socket (datagrams queue in the kernel
   buffer, then overflow and drop, exactly like a stopped process), no
   timer fires, no event dispatches, and its deadlines stop driving
   the poll loop. State, socket and pending events all survive;
   [resume] puts the node back and the next [poll] advances the wheel
   across the whole gap in one jump — every timer that came due while
   stopped fires late, which is precisely the scenario the paper's
   wrong-suspicion state and Lifeguard-style local health absorb. *)
let pause t =
  if t.state <> None && not t.paused then begin
    t.paused <- true;
    Stats.incr t.stats "live:pause"
  end

let resume t =
  if t.paused then begin
    t.paused <- false;
    Stats.incr t.stats "live:resume"
  end

let inject t m =
  if t.state <> None then
    Eventloop.Dispatcher.post t.dispatcher ~kind:kind_recv
      (Ev_recv (self t, m))

(* bounded batch per readiness wake-up: a peer flooding the socket can
   delay our timers by at most one batch before the loop services the
   wheel again; leftovers re-trigger readiness immediately *)
let drain_budget = 64

let recv_ready t =
  ignore
    (Transport.drain ~budget:drain_budget t.transport ~handler:(fun ~src m ->
         Eventloop.Dispatcher.post t.dispatcher ~kind:kind_recv
           (Ev_recv (src, m))))

let poll t ~now =
  if t.state = None || t.paused then 0
  else begin
    let released = Transport.pump t.transport ~now in
    let fired = Eventloop.Timer_wheel.advance t.wheel ~to_:(Time.to_us now) in
    let dispatched = Eventloop.Dispatcher.run_pending t.dispatcher in
    (* end of the dispatch pass: everything the handlers sent leaves
       as one batch *)
    Transport.flush t.transport;
    released + fired + dispatched
  end

let transport t = t.transport

let next_deadline t =
  if t.state = None || t.paused then None
  else
    let wheel = Option.map Time.of_us (Eventloop.Timer_wheel.next_expiry t.wheel) in
    match (wheel, Transport.next_release t.transport) with
    | None, release -> release
    | wheel, None -> wheel
    | Some a, Some b -> Some (Time.min a b)
