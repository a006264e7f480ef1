open Tasim

type result = {
  sim_seconds : float;
  wall_seconds : float;
  sends : int;
  deliveries : int;
  timer_fires : int;
  observations : int;
  events : int;
  events_per_sec : float;
  minor_words_per_event : float;
}

let n = 5
let period = Time.of_ms 1

(* Four message kinds so the engine's per-kind counter path is
   exercised with more than one key, as real protocols do. *)
let classify k =
  match k land 3 with
  | 0 -> "alpha"
  | 1 -> "beta"
  | 2 -> "gamma"
  | _ -> "delta"

let automaton ~timer_fires =
  {
    Engine.name = "bench-broadcast";
    init =
      (fun ~self:_ ~n:_ ~clock ~incarnation:_ ->
        (0, [ Engine.Set_timer { key = 0; at_clock = Time.add clock period } ]));
    on_receive =
      (fun round ~clock:_ ~src:_ msg ->
        if msg land 255 = 0 then (round, [ Engine.Observe () ])
        else (round, []));
    on_timer =
      (fun round ~clock ~key:_ ->
        incr timer_fires;
        ( round + 1,
          [
            Engine.Broadcast round;
            Engine.Set_timer { key = 0; at_clock = Time.add clock period };
          ] ));
  }

let run ?(seconds = 10) ?(seed = 42) () =
  let engine = Engine.create { Engine.default_config with Engine.seed } ~n in
  Engine.classify engine classify;
  let observations = ref 0 in
  Engine.on_observe engine (fun _at _proc () -> incr observations);
  let timer_fires = ref 0 in
  let a = automaton ~timer_fires in
  List.iter
    (fun id -> Engine.add_process engine id a ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  Gc.minor ();
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Engine.run engine ~until:(Time.of_sec seconds);
  let wall = Unix.gettimeofday () -. t0 in
  let m1 = Gc.minor_words () in
  let counters = Stats.counters (Engine.stats engine) in
  let sends = Run.sum_prefixed counters ~prefixes:[ "sent:" ] in
  let deliveries = Run.sum_prefixed counters ~prefixes:[ "delivered:" ] in
  let events = sends + deliveries + !timer_fires in
  {
    sim_seconds = float_of_int seconds;
    wall_seconds = wall;
    sends;
    deliveries;
    timer_fires = !timer_fires;
    observations = !observations;
    events;
    events_per_sec = (if wall > 0.0 then float_of_int events /. wall else 0.0);
    minor_words_per_event =
      (if events > 0 then (m1 -. m0) /. float_of_int events else 0.0);
  }
