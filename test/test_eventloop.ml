(* Tests for the event-based dispatcher, the timing wheel and the
   thread-based comparison dispatcher (paper, Section 5). *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Dispatcher *)

let test_dispatcher_fifo () =
  let d = Eventloop.Dispatcher.create () in
  let seen = ref [] in
  Eventloop.Dispatcher.register d ~kind:0 (fun v -> seen := v :: !seen);
  List.iter (fun v -> Eventloop.Dispatcher.post d ~kind:0 v) [ 1; 2; 3 ];
  check Alcotest.int "queued" 3 (Eventloop.Dispatcher.queue_length d);
  check Alcotest.int "dispatched" 3 (Eventloop.Dispatcher.run_pending d);
  check (Alcotest.list Alcotest.int) "FIFO order" [ 1; 2; 3 ] (List.rev !seen)

let test_dispatcher_multi_kind () =
  let d = Eventloop.Dispatcher.create () in
  let a = ref 0 and b = ref 0 in
  Eventloop.Dispatcher.register d ~kind:1 (fun v -> a := !a + v);
  Eventloop.Dispatcher.register d ~kind:2 (fun v -> b := !b + v);
  Eventloop.Dispatcher.post d ~kind:1 10;
  Eventloop.Dispatcher.post d ~kind:2 20;
  Eventloop.Dispatcher.post d ~kind:1 1;
  ignore (Eventloop.Dispatcher.run_pending d);
  check Alcotest.int "kind 1" 11 !a;
  check Alcotest.int "kind 2" 20 !b

let test_dispatcher_reentrant_post () =
  (* a handler posting events must see them drained in the same
     run_pending call *)
  let d = Eventloop.Dispatcher.create () in
  let seen = ref [] in
  Eventloop.Dispatcher.register d ~kind:0 (fun v ->
      seen := v :: !seen;
      if v < 3 then Eventloop.Dispatcher.post d ~kind:0 (v + 1));
  Eventloop.Dispatcher.post d ~kind:0 0;
  check Alcotest.int "cascade" 4 (Eventloop.Dispatcher.run_pending d);
  check (Alcotest.list Alcotest.int) "order" [ 0; 1; 2; 3 ] (List.rev !seen)

let test_dispatcher_unregistered_dropped () =
  let d = Eventloop.Dispatcher.create () in
  Eventloop.Dispatcher.post d ~kind:9 1;
  ignore (Eventloop.Dispatcher.run_pending d);
  check Alcotest.int "dropped" 1 (Eventloop.Dispatcher.dropped d);
  check Alcotest.int "dispatched" 0 (Eventloop.Dispatcher.dispatched d)

let test_dispatcher_replace_handler () =
  let d = Eventloop.Dispatcher.create () in
  let v = ref 0 in
  Eventloop.Dispatcher.register d ~kind:0 (fun _ -> v := 1);
  Eventloop.Dispatcher.register d ~kind:0 (fun _ -> v := 2);
  Eventloop.Dispatcher.post d ~kind:0 ();
  ignore (Eventloop.Dispatcher.run_pending d);
  check Alcotest.int "replaced" 2 !v

let test_dispatcher_unregister () =
  let d = Eventloop.Dispatcher.create () in
  Eventloop.Dispatcher.register d ~kind:0 (fun _ -> ());
  Eventloop.Dispatcher.unregister d ~kind:0;
  Eventloop.Dispatcher.post d ~kind:0 ();
  ignore (Eventloop.Dispatcher.run_pending d);
  check Alcotest.int "dropped after unregister" 1
    (Eventloop.Dispatcher.dropped d)

let test_dispatcher_run_one () =
  let d = Eventloop.Dispatcher.create () in
  let n = ref 0 in
  Eventloop.Dispatcher.register d ~kind:0 (fun _ -> incr n);
  Eventloop.Dispatcher.post d ~kind:0 ();
  Eventloop.Dispatcher.post d ~kind:0 ();
  check Alcotest.bool "one" true (Eventloop.Dispatcher.run_one d);
  check Alcotest.int "only one" 1 !n;
  check Alcotest.bool "second" true (Eventloop.Dispatcher.run_one d);
  check Alcotest.bool "empty" false (Eventloop.Dispatcher.run_one d)

(* ------------------------------------------------------------------ *)
(* Timer wheel *)

let test_wheel_fires_in_order () =
  let w = Eventloop.Timer_wheel.create ~tick:10 () in
  let fired = ref [] in
  let arm at v =
    ignore
      (Eventloop.Timer_wheel.schedule w ~at (fun () -> fired := v :: !fired))
  in
  arm 35 "b";
  arm 15 "a";
  arm 95 "c";
  check Alcotest.int "pending" 3 (Eventloop.Timer_wheel.pending w);
  ignore (Eventloop.Timer_wheel.advance w ~to_:100);
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ]
    (List.rev !fired);
  check Alcotest.int "none pending" 0 (Eventloop.Timer_wheel.pending w)

let test_wheel_cancel () =
  let w = Eventloop.Timer_wheel.create ~tick:10 () in
  let fired = ref 0 in
  let id = Eventloop.Timer_wheel.schedule w ~at:50 (fun () -> incr fired) in
  check Alcotest.bool "cancelled" true (Eventloop.Timer_wheel.cancel w id);
  check Alcotest.bool "double cancel" false (Eventloop.Timer_wheel.cancel w id);
  ignore (Eventloop.Timer_wheel.advance w ~to_:100);
  check Alcotest.int "never fired" 0 !fired

let test_wheel_rearm_churn () =
  (* regression: cancel used to leave cancelled timers resident in
     their buckets until the wheel swept past the slot. A live node
     re-arms its failure-detector timers on every received message —
     thousands of cancel/schedule cycles with time barely advancing —
     so stale residents made bucket scans (and memory) grow without
     bound. After the fix, cancellation purges the bucket: residency
     must stay bounded by the number of genuinely pending timers. *)
  let w = Eventloop.Timer_wheel.create ~wheel_size:64 ~tick:10 () in
  let fired = ref 0 in
  let id = ref (Eventloop.Timer_wheel.schedule w ~at:500 (fun () -> incr fired)) in
  for _ = 1 to 10_000 do
    check Alcotest.bool "cancelled" true (Eventloop.Timer_wheel.cancel w !id);
    (* same slot every time: the worst case for bucket growth *)
    id := Eventloop.Timer_wheel.schedule w ~at:500 (fun () -> incr fired)
  done;
  check Alcotest.int "one pending timer" 1 (Eventloop.Timer_wheel.pending w);
  check Alcotest.int "one resident timer" 1 (Eventloop.Timer_wheel.resident w);
  check (Alcotest.option Alcotest.int) "next expiry visible" (Some 500)
    (Eventloop.Timer_wheel.next_expiry w);
  ignore (Eventloop.Timer_wheel.advance w ~to_:600);
  check Alcotest.int "survivor fires once" 1 !fired;
  check Alcotest.int "empty after firing" 0 (Eventloop.Timer_wheel.resident w);
  check (Alcotest.option Alcotest.int) "no expiry when idle" None
    (Eventloop.Timer_wheel.next_expiry w)

let test_wheel_wraps_rounds () =
  (* expiry far beyond one wheel revolution must still fire exactly once
     at the right tick *)
  let w = Eventloop.Timer_wheel.create ~wheel_size:8 ~tick:1 () in
  let fired_at = ref [] in
  for i = 1 to 40 do
    ignore
      (Eventloop.Timer_wheel.schedule w ~at:i (fun () ->
           fired_at := i :: !fired_at))
  done;
  ignore (Eventloop.Timer_wheel.advance w ~to_:40);
  check (Alcotest.list Alcotest.int) "all fire in order"
    (List.init 40 (fun i -> i + 1))
    (List.rev !fired_at)

let test_wheel_past_deadline_fires_next_tick () =
  let w = Eventloop.Timer_wheel.create ~tick:10 () in
  ignore (Eventloop.Timer_wheel.advance w ~to_:100);
  let fired = ref false in
  ignore (Eventloop.Timer_wheel.schedule w ~at:50 (fun () -> fired := true));
  ignore (Eventloop.Timer_wheel.advance w ~to_:110);
  check Alcotest.bool "clamped to next tick" true !fired

let test_wheel_reentrant_schedule () =
  (* periodic re-arming from inside a callback *)
  let w = Eventloop.Timer_wheel.create ~tick:10 () in
  let count = ref 0 in
  let rec arm at =
    ignore
      (Eventloop.Timer_wheel.schedule w ~at (fun () ->
           incr count;
           if !count < 5 then arm (at + 20)))
  in
  arm 20;
  ignore (Eventloop.Timer_wheel.advance w ~to_:200);
  check Alcotest.int "periodic firings" 5 !count

let prop_wheel_all_fire_once =
  QCheck.Test.make ~name:"every scheduled timer fires exactly once"
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 1 500))
    (fun ats ->
      let w = Eventloop.Timer_wheel.create ~wheel_size:16 ~tick:7 () in
      let fired = ref 0 in
      List.iter
        (fun at ->
          ignore (Eventloop.Timer_wheel.schedule w ~at (fun () -> incr fired)))
        ats;
      ignore (Eventloop.Timer_wheel.advance w ~to_:1000);
      !fired = List.length ats && Eventloop.Timer_wheel.pending w = 0)

(* [next_expiry] keeps the earliest expiry rather than folding the
   table: under any mix of arming, cancelling and advancing it must
   equal the minimum over the timers still pending *)
let prop_wheel_next_expiry_is_min =
  QCheck.Test.make ~name:"next_expiry is the earliest pending expiry"
    QCheck.(
      list_of_size (Gen.int_range 1 80) (pair (int_range 0 2) (int_range 0 300)))
    (fun ops ->
      let tick = 7 in
      let w = Eventloop.Timer_wheel.create ~wheel_size:16 ~tick () in
      let live = ref [] in
      List.for_all
        (fun (op, x) ->
          let now = Eventloop.Timer_wheel.now w in
          (match op with
          | 0 ->
            let at = now + x in
            let expiry =
              tick * Stdlib.max ((at + tick - 1) / tick) ((now / tick) + 1)
            in
            let id = Eventloop.Timer_wheel.schedule w ~at ignore in
            live := (id, expiry) :: !live
          | 1 -> (
            match !live with
            | [] -> ()
            | l ->
              let id, _ = List.nth l (x mod List.length l) in
              ignore (Eventloop.Timer_wheel.cancel w id);
              live := List.filter (fun (i, _) -> i <> id) l)
          | _ ->
            let to_ = now + (x / 4) in
            ignore (Eventloop.Timer_wheel.advance w ~to_);
            let reached = Eventloop.Timer_wheel.now w in
            live := List.filter (fun (_, e) -> e > reached) !live);
          let want =
            List.fold_left
              (fun acc (_, e) ->
                Some (match acc with None -> e | Some a -> Stdlib.min a e))
              None !live
          in
          Eventloop.Timer_wheel.next_expiry w = want)
        ops)

(* [advance] jumps from due tick to due tick. A reference that walks
   every tick, firing each tick's timers in arming order, must see the
   same timers fire in the same order and end at the same time, under
   any mix of arming (some timers re-arm a child from their callback,
   which may land on the very next tick), cancelling and advancing. *)
module Tick_walk = struct
  type timer = { label : int; expiry : int; child : int option }

  type t = {
    tick : int;
    mutable current : int;
    mutable timers : timer list; (* arming order *)
  }

  let create ~tick = { tick; current = 0; timers = [] }

  let schedule t ~at ~label ~child =
    let expiry = Stdlib.max ((at + t.tick - 1) / t.tick) (t.current + 1) in
    t.timers <- t.timers @ [ { label; expiry; child } ]

  let cancel t label =
    let before = List.length t.timers in
    t.timers <- List.filter (fun timer -> timer.label <> label) t.timers;
    List.length t.timers < before

  (* [on_fire] returns the child's label when it arms one *)
  let advance t ~to_ ~on_fire =
    let target = to_ / t.tick in
    while t.current < target do
      t.current <- t.current + 1;
      let due, later =
        List.partition (fun timer -> timer.expiry = t.current) t.timers
      in
      t.timers <- later;
      List.iter
        (fun timer ->
          match (on_fire timer.label, timer.child) with
          | Some label, Some d ->
            schedule t ~at:((t.current * t.tick) + d) ~label ~child:None
          | _ -> ())
        due
    done
end

let prop_wheel_jump_matches_tick_walk =
  QCheck.Test.make ~name:"jumping advance fires as a tick-by-tick walk"
    QCheck.(
      list_of_size (Gen.int_range 1 80)
        (triple (int_range 0 2) (int_range 0 400)
           (option (int_range (-20) 40))))
    (fun ops ->
      let tick = 7 in
      let w = Eventloop.Timer_wheel.create ~wheel_size:8 ~tick () in
      let r = Tick_walk.create ~tick in
      let next_label = ref 0 in
      let fresh () =
        let l = !next_label in
        incr next_label;
        l
      in
      let fired_w = ref [] and fired_r = ref [] in
      let ids = Hashtbl.create 16 in
      let rec arm_w ~at ~label ~child =
        let id =
          Eventloop.Timer_wheel.schedule w ~at (fun () ->
              fired_w := label :: !fired_w;
              Hashtbl.remove ids label;
              match child with
              | Some d ->
                arm_w
                  ~at:(Eventloop.Timer_wheel.now w + d)
                  ~label:(label + 10_000) ~child:None
              | None -> ())
        in
        Hashtbl.replace ids label id
      in
      List.for_all
        (fun (op, x, child) ->
          let now = Eventloop.Timer_wheel.now w in
          (match op with
          | 0 ->
            let label = fresh () in
            arm_w ~at:(now + x) ~label ~child;
            Tick_walk.schedule r ~at:(now + x) ~label ~child
          | 1 -> (
            let live = Hashtbl.fold (fun l _ acc -> l :: acc) ids [] in
            match List.sort compare live with
            | [] -> ()
            | live ->
              let label = List.nth live (x mod List.length live) in
              let id = Hashtbl.find ids label in
              Hashtbl.remove ids label;
              let cw = Eventloop.Timer_wheel.cancel w id in
              let cr = Tick_walk.cancel r label in
              if cw <> cr then QCheck.Test.fail_report "cancel results differ")
          | _ ->
            let to_ = now + x in
            ignore (Eventloop.Timer_wheel.advance w ~to_);
            Tick_walk.advance r ~to_ ~on_fire:(fun label ->
                fired_r := label :: !fired_r;
                Some (label + 10_000)));
          !fired_w = !fired_r
          && Eventloop.Timer_wheel.now w = r.Tick_walk.current * tick
          && Eventloop.Timer_wheel.pending w = List.length r.Tick_walk.timers)
        ops)

(* ------------------------------------------------------------------ *)
(* Threaded dispatcher *)

let test_threaded_processes_all () =
  let d = Eventloop.Threaded.create () in
  let counters = Array.make 4 0 in
  let mutex = Mutex.create () in
  for k = 0 to 3 do
    Eventloop.Threaded.register d ~kind:k (fun v ->
        Mutex.lock mutex;
        counters.(k) <- counters.(k) + v;
        Mutex.unlock mutex)
  done;
  for i = 0 to 399 do
    Eventloop.Threaded.post d ~kind:(i mod 4) 1
  done;
  Eventloop.Threaded.drain d;
  check Alcotest.int "all dispatched" 400 (Eventloop.Threaded.dispatched d);
  Array.iter (fun c -> check Alcotest.int "per kind" 100 c) counters;
  Eventloop.Threaded.shutdown d

let test_threaded_unknown_kind () =
  let d = Eventloop.Threaded.create () in
  Eventloop.Threaded.register d ~kind:0 (fun () -> ());
  Alcotest.check_raises "unknown kind"
    (Invalid_argument "Threaded.post: unknown event kind") (fun () ->
      Eventloop.Threaded.post d ~kind:7 ());
  Eventloop.Threaded.shutdown d

let test_threaded_double_register () =
  let d = Eventloop.Threaded.create () in
  Eventloop.Threaded.register d ~kind:0 (fun () -> ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Threaded.register: kind registered twice") (fun () ->
      Eventloop.Threaded.register d ~kind:0 (fun () -> ()));
  Eventloop.Threaded.shutdown d

let test_threaded_serialized_handlers () =
  (* at most one handler runs at a time: a racy counter must still be
     exact because the handover token serializes handlers *)
  let d = Eventloop.Threaded.create () in
  let counter = ref 0 in
  for k = 0 to 7 do
    Eventloop.Threaded.register d ~kind:k (fun () ->
        let v = !counter in
        (* no mutex here on purpose: serialization must protect us *)
        counter := v + 1)
  done;
  for i = 0 to 799 do
    Eventloop.Threaded.post d ~kind:(i mod 8) ()
  done;
  Eventloop.Threaded.drain d;
  check Alcotest.int "exact count without handler locking" 800 !counter;
  Eventloop.Threaded.shutdown d

(* ------------------------------------------------------------------ *)
(* Crash/recover delivery semantics of the simulation engine's event
   loop (see engine.mli, crash_at). Two behaviors are pinned here: a
   datagram in flight across a receiver crash/recovery pair is handed
   to the NEW incarnation (the network does not know about process
   restarts), while a timer armed before the crash never fires after
   recovery (pending timer events carry the arming incarnation). *)

module Time = Tasim.Time
module Proc_id = Tasim.Proc_id
module Engine = Tasim.Engine

type probe_msg = Mark of int

(* deterministic 5ms transmission delay so the crash/recover window can
   be placed precisely inside the flight time *)
let fixed_delay_config =
  {
    Engine.default_config with
    Engine.net =
      {
        Tasim.Net.default_config with
        Tasim.Net.delay_min = Time.of_ms 5;
        delay_max = Time.of_ms 5;
      };
  }

let test_inflight_delivery_reaches_new_incarnation () =
  let received = ref [] in
  let a =
    {
      Engine.name = "inc-probe";
      init =
        (fun ~self ~n:_ ~clock:_ ~incarnation ->
          let effects =
            if Proc_id.to_int self = 0 && incarnation = 0 then
              [ Engine.Send (Proc_id.of_int 1, Mark 7) ]
            else []
          in
          (incarnation, effects));
      on_receive =
        (fun inc ~clock:_ ~src:_ (Mark k) ->
          received := (inc, k) :: !received;
          (inc, []));
      on_timer = (fun inc ~clock:_ ~key:_ -> (inc, []));
    }
  in
  let engine = Engine.create fixed_delay_config ~n:2 in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.add_process engine (Proc_id.of_int 1) a ~clock:Engine.ideal_clock ();
  (* the datagram is sent at t=0 and lands at t=5ms; the receiver
     crashes and recovers entirely within the flight window *)
  Engine.crash_at engine (Time.of_ms 1) (Proc_id.of_int 1);
  Engine.recover_at engine (Time.of_ms 3) (Proc_id.of_int 1);
  Engine.run engine ~until:(Time.of_sec 1);
  match !received with
  | [ (inc, 7) ] ->
    Alcotest.check Alcotest.int "delivered to the new incarnation" 1 inc
  | l -> Alcotest.failf "expected one delivery, got %d" (List.length l)

let test_precrash_timer_suppressed () =
  let fired = ref [] in
  let a =
    {
      Engine.name = "timer-guard";
      init =
        (fun ~self:_ ~n:_ ~clock ~incarnation ->
          ( incarnation,
            [
              Engine.Set_timer
                { key = 1; at_clock = Time.add clock (Time.of_ms 10) };
            ] ));
      on_receive = (fun inc ~clock:_ ~src:_ (Mark _) -> (inc, []));
      on_timer =
        (fun inc ~clock ~key:_ ->
          fired := (inc, clock) :: !fired;
          (inc, []));
    }
  in
  let engine = Engine.create fixed_delay_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  (* incarnation 0 arms a timer for t=10ms, then crashes at 5ms; the
     recovered incarnation re-arms for t=16ms. Only the latter fires. *)
  Engine.crash_at engine (Time.of_ms 5) (Proc_id.of_int 0);
  Engine.recover_at engine (Time.of_ms 6) (Proc_id.of_int 0);
  Engine.run engine ~until:(Time.of_sec 1);
  match !fired with
  | [ (inc, at) ] ->
    Alcotest.check Alcotest.int "fired in the new incarnation" 1 inc;
    Alcotest.check Alcotest.bool "the stale arming never fired" true
      (at >= Time.of_ms 16)
  | l -> Alcotest.failf "expected one firing, got %d" (List.length l)

let () =
  Alcotest.run "eventloop"
    [
      ( "dispatcher",
        [
          Alcotest.test_case "fifo" `Quick test_dispatcher_fifo;
          Alcotest.test_case "multi kind" `Quick test_dispatcher_multi_kind;
          Alcotest.test_case "reentrant post" `Quick test_dispatcher_reentrant_post;
          Alcotest.test_case "unregistered dropped" `Quick
            test_dispatcher_unregistered_dropped;
          Alcotest.test_case "replace handler" `Quick test_dispatcher_replace_handler;
          Alcotest.test_case "unregister" `Quick test_dispatcher_unregister;
          Alcotest.test_case "run_one" `Quick test_dispatcher_run_one;
        ] );
      ( "timer wheel",
        [
          Alcotest.test_case "fires in order" `Quick test_wheel_fires_in_order;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "re-arm churn stays bounded" `Quick
            test_wheel_rearm_churn;
          Alcotest.test_case "wraps rounds" `Quick test_wheel_wraps_rounds;
          Alcotest.test_case "past deadline" `Quick
            test_wheel_past_deadline_fires_next_tick;
          Alcotest.test_case "reentrant" `Quick test_wheel_reentrant_schedule;
          qcheck prop_wheel_all_fire_once;
          qcheck prop_wheel_next_expiry_is_min;
          qcheck prop_wheel_jump_matches_tick_walk;
        ] );
      ( "threaded",
        [
          Alcotest.test_case "processes all" `Quick test_threaded_processes_all;
          Alcotest.test_case "unknown kind" `Quick test_threaded_unknown_kind;
          Alcotest.test_case "double register" `Quick test_threaded_double_register;
          Alcotest.test_case "serialized" `Quick test_threaded_serialized_handlers;
        ] );
      ( "engine delivery semantics",
        [
          Alcotest.test_case "in-flight datagram across crash/recover" `Quick
            test_inflight_delivery_reaches_new_incarnation;
          Alcotest.test_case "pre-crash timer suppressed" `Quick
            test_precrash_timer_suppressed;
        ] );
    ]
