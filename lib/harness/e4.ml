open Tasim
open Timewheel

type pick = Spread | Decider_and_successor

let pick_name = function
  | Spread -> "spread"
  | Decider_and_successor -> "decider+succ"

(* Returns the crash-to-agreed-view duration in microseconds, or None
   when no new group formed within the horizon, plus whether survivor
   logs stayed consistent. *)
let one_run ~n ~f ~seed ~pick =
  let svc = Run.service ~seed ~n () in
  let watcher = Run.watch_views svc in
  let svc = Run.settle svc in
  let engine = Service.engine svc in
  let fault_at = Time.add (Service.now svc) (Time.of_sec 1) in
  let victims = ref Proc_set.empty in
  Engine.at engine fault_at (fun () ->
      let decider =
        match Service.decider svc with Some d -> Proc_id.to_int d | None -> 0
      in
      let targets =
        match pick with
        | Decider_and_successor ->
          List.init f (fun i -> Proc_id.of_int ((decider + i) mod n))
        | Spread ->
          List.init f (fun i ->
              Proc_id.of_int ((decider + 1 + (i * (n / f))) mod n))
      in
      victims := Proc_set.of_list targets;
      List.iter (fun p -> Engine.crash_at engine (Engine.now engine) p) targets);
  Service.run svc ~until:(Time.add fault_at (Time.of_sec 10));
  let change = Run.measure_exclusion watcher svc ~fault_at ~victims:!victims in
  let duration =
    Option.map
      (fun gone -> float_of_int (Time.sub gone fault_at))
      change.Run.victim_gone
  in
  (duration, Run.survivors_consistent svc)

let run ?(quick = false) () =
  let cases =
    if quick then [ (5, 2, Spread) ]
    else
      [
        (5, 2, Spread);
        (5, 2, Decider_and_successor);
        (7, 2, Spread);
        (7, 3, Spread);
        (7, 3, Decider_and_successor);
        (9, 3, Spread);
        (9, 4, Spread);
      ]
  in
  let seeds = if quick then [ 31; 32 ] else [ 31; 32; 33; 34; 35 ] in
  let table =
    Table.create ~title:"E4: multi-failure reconfiguration latency"
      ~columns:
        [
          "N";
          "f";
          "victims";
          "runs ok";
          "recover mean";
          "recover p95";
          "cycles mean";
          "consistent";
        ]
  in
  List.iter
    (fun (n, f, pick) ->
      let params = Params.make ~pacing:Paced ~n () in
      let cycle_us = float_of_int (Params.cycle params) in
      let results = List.map (fun seed -> one_run ~n ~f ~seed ~pick) seeds in
      let durations = List.filter_map fst results in
      let consistent = List.for_all snd results in
      let oks = List.length durations in
      let cells =
        match Stats.summarize (Array.of_list durations) with
        | Some s ->
          [
            Table.cell_ms s.Stats.mean;
            Table.cell_ms s.Stats.p95;
            Table.cell_f (s.Stats.mean /. cycle_us);
          ]
        | None -> [ "-"; "-"; "-" ]
      in
      Table.add_row table
        ([
           string_of_int n;
           string_of_int f;
           pick_name pick;
           Fmt.str "%d/%d" oks (List.length seeds);
         ]
        @ cells
        @ [ string_of_bool consistent ]))
    cases;
  Table.note table
    "paper: a new decider is typically elected in two rounds (~2 cycles) \
     after the n-failure abstention of N-1 slots";
  [ table ]
