open Tasim
open Timewheel
open Broadcast

(* ------------------------------------------------------------------ *)
(* shared machinery: one crash-recovery measurement for given params *)

let crash_recovery ~params ~seed =
  let svc = Run.service ~seed ~params ~n:params.Params.n () in
  let watcher = Run.watch_views svc in
  let svc = Run.settle svc in
  let fault_at = Time.add (Service.now svc) (Time.of_sec 1) in
  let victim = Proc_id.of_int 2 in
  Service.crash_at svc fault_at victim;
  Service.run svc ~until:(Time.add fault_at (Time.of_sec 8));
  let change =
    Run.measure_exclusion watcher svc ~fault_at
      ~victims:(Proc_set.singleton victim)
  in
  ( Option.map (fun t -> float_of_int (Time.sub t fault_at)) change.Run.suspicion,
    Option.map
      (fun t -> float_of_int (Time.sub t fault_at))
      change.Run.victim_gone )

let failure_free_rate ~params ~seed ~window =
  let svc = Run.service ~seed ~params ~n:params.Params.n () in
  let svc = Run.settle svc in
  let before = Run.counters_snapshot svc in
  Service.run svc ~until:(Time.add (Service.now svc) window);
  let after = Run.counters_snapshot svc in
  let diff = Run.counters_diff ~before ~after in
  float_of_int (Run.sent_matching diff ~prefixes:[ "" ])
  /. Time.to_sec_f window

(* ------------------------------------------------------------------ *)
(* A1: sweep D *)

let a1 ~quick =
  let table =
    Table.create
      ~title:"A1: the D trade-off (N=5, crash an ordinary member)"
      ~columns:
        [ "D"; "msgs/s failure-free"; "detect mean"; "recover mean" ]
  in
  let ds =
    if quick then [ 30 ] else [ 10; 20; 30; 50; 100 ]
  in
  let seeds = if quick then [ 81 ] else [ 81; 82; 83 ] in
  List.iter
    (fun d_ms ->
      let params = Params.make ~pacing:Paced ~d:(Time.of_ms d_ms) ~n:5 () in
      let rate = failure_free_rate ~params ~seed:81 ~window:(Time.of_sec 5) in
      let detections, recoveries =
        List.fold_left
          (fun (ds_, rs) seed ->
            match crash_recovery ~params ~seed with
            | Some d, Some r -> (d :: ds_, r :: rs)
            | _ -> (ds_, rs))
          ([], []) seeds
      in
      let mean = function
        | [] -> nan
        | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
      in
      Table.add_row table
        [
          Fmt.str "%dms" d_ms;
          Table.cell_f rate;
          Table.cell_ms (mean detections);
          Table.cell_ms (mean recoveries);
        ])
    ds;
  Table.note table
    "smaller D: more decision traffic, faster detection — the deployment \
     knob the paper leaves open";
  table

(* ------------------------------------------------------------------ *)
(* A2: eager vs paced decisions *)

let a2 ~quick =
  let table =
    Table.create ~title:"A2: eager vs paced decision rotation (N=5)"
      ~columns:
        [ "mode"; "msgs/s failure-free"; "ordering latency p50"; "p95" ]
  in
  let updates = if quick then 40 else 150 in
  List.iter
    (fun (mode, pacing) ->
      let params = Params.make ~pacing ~n:5 () in
      let svc = Run.service ~seed:91 ~params ~n:5 () in
      let stats = Stats.create () in
      Service.on_delivery svc (fun _proc ~at proposal ~ordinal:_ ->
          Stats.record_time stats "lat" (Time.sub at proposal.Proposal.send_ts));
      let svc = Run.settle svc in
      let before = Run.counters_snapshot svc in
      let t0 = Service.now svc in
      for i = 0 to updates - 1 do
        Service.submit_at svc
          (Time.add t0 (Time.of_ms (20 * i)))
          (Proc_id.of_int (i mod 5))
          ~semantics:Semantics.{ ordering = Total; atomicity = Weak }
          i
      done;
      let window = Time.of_ms ((20 * updates) + 2000) in
      Service.run svc ~until:(Time.add t0 window);
      let after = Run.counters_snapshot svc in
      let rate =
        float_of_int
          (Run.sent_matching (Run.counters_diff ~before ~after) ~prefixes:[ "" ])
        /. Time.to_sec_f window
      in
      match Stats.summary_of stats "lat" with
      | Some s ->
        Table.add_row table
          [
            mode;
            Table.cell_f rate;
            Table.cell_ms s.Stats.p50;
            Table.cell_ms s.Stats.p95;
          ]
      | None -> ())
    [ ("paced (D)", Params.Paced); ("eager", Params.Eager);
      ("adaptive", Params.Adaptive) ];
  Table.note table
    "eager rotation orders updates at network speed but multiplies the \
     failure-free message rate — the paper's paced design is the \
     low-overhead point";
  table

(* ------------------------------------------------------------------ *)
(* A3: single-failure fast path on/off *)

let a3 ~quick =
  let table =
    Table.create
      ~title:"A3: value of the single-failure election (N=5, one crash)"
      ~columns:[ "fast path"; "detect mean"; "recover mean"; "recover p95" ]
  in
  let seeds = if quick then [ 95 ] else [ 95; 96; 97; 98 ] in
  List.iter
    (fun enabled ->
      let params =
        Params.make ~pacing:Paced ~single_failure_election:enabled ~n:5 ()
      in
      let recoveries, detections =
        List.fold_left
          (fun (rs, ds) seed ->
            match crash_recovery ~params ~seed with
            | Some d, Some r -> (r :: rs, d :: ds)
            | _ -> (rs, ds))
          ([], []) seeds
      in
      match
        ( Stats.summarize (Array.of_list detections),
          Stats.summarize (Array.of_list recoveries) )
      with
      | Some d, Some r ->
        Table.add_row table
          [
            (if enabled then "no-decision ring (paper)"
             else "disabled (reconfiguration only)");
            Table.cell_ms d.Stats.mean;
            Table.cell_ms r.Stats.mean;
            Table.cell_ms r.Stats.p95;
          ]
      | _ ->
        Table.add_row table
          [
            (if enabled then "no-decision ring (paper)" else "disabled");
            "-"; "-"; "-";
          ])
    [ true; false ];
  Table.note table
    "the ring election is the paper's optimization for the common case: \
     without it every single crash pays the ~2-cycle slotted election";
  table

let run ?(quick = false) () = [ a1 ~quick; a2 ~quick; a3 ~quick ]
