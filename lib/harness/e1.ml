open Tasim
open Timewheel

let token_ring_counters ~n ~seed ~settle ~window =
  let cfg = Baseline.Token_ring.default_config ~n in
  let engine_config = { Engine.default_config with Engine.seed } in
  let engine = Engine.create engine_config ~n in
  Engine.classify engine Baseline.Token_ring.kind_of_msg;
  let automaton = Baseline.Token_ring.automaton cfg in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  Engine.run engine ~until:settle;
  let before = Stats.counters (Engine.stats engine) in
  Engine.run engine ~until:(Time.add settle window);
  let after = Stats.counters (Engine.stats engine) in
  Run.counters_diff ~before ~after

let heartbeat_counters ~n ~d ~seed ~settle ~window =
  let cfg = { (Baseline.Heartbeat.default_config ~n) with period = d } in
  let engine_config = { Engine.default_config with Engine.seed } in
  let engine = Engine.create engine_config ~n in
  Engine.classify engine Baseline.Heartbeat.kind_of_msg;
  let automaton = Baseline.Heartbeat.automaton cfg in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  Engine.run engine ~until:settle;
  let before = Stats.counters (Engine.stats engine) in
  Engine.run engine ~until:(Time.add settle window);
  let after = Stats.counters (Engine.stats engine) in
  Run.counters_diff ~before ~after

let run ?(quick = false) () =
  let ns = if quick then [ 3; 5 ] else [ 3; 5; 7; 9; 13 ] in
  let window = Time.of_sec (if quick then 3 else 10) in
  let table =
    Table.create ~title:"E1: failure-free datagrams per second"
      ~columns:
        [
          "N";
          "tw total/s";
          "tw decision/s";
          "tw membership/s";
          "hb total/s";
          "tr total/s";
          "hb/tw ratio";
        ]
  in
  List.iter
    (fun n ->
      let params = Params.make ~pacing:Paced ~n () in
      let svc = Run.service ~seed:7 ~n () in
      let svc = Run.settle svc in
      let before = Run.counters_snapshot svc in
      Service.run svc ~until:(Time.add (Service.now svc) window);
      let after = Run.counters_snapshot svc in
      let diff = Run.counters_diff ~before ~after in
      let secs = Time.to_sec_f window in
      let tw_decision =
        float_of_int (Run.sent_matching diff ~prefixes:[ "decision" ]) /. secs
      in
      let tw_membership =
        float_of_int
          (Run.sent_matching diff
             ~prefixes:
               [ "join"; "no-decision"; "reconfiguration"; "state-transfer" ])
        /. secs
      in
      let tw_total =
        float_of_int (Run.sent_matching diff ~prefixes:[ "" ]) /. secs
      in
      let hb =
        heartbeat_counters ~n ~d:params.Params.d ~seed:7
          ~settle:(Time.of_sec 1) ~window
      in
      let hb_total =
        float_of_int (Run.sent_matching hb ~prefixes:[ "" ]) /. secs
      in
      let tr =
        token_ring_counters ~n ~seed:7 ~settle:(Time.of_sec 1) ~window
      in
      let tr_total =
        float_of_int (Run.sent_matching tr ~prefixes:[ "" ]) /. secs
      in
      Table.add_row table
        [
          string_of_int n;
          Table.cell_f tw_total;
          Table.cell_f tw_decision;
          Table.cell_f tw_membership;
          Table.cell_f hb_total;
          Table.cell_f tr_total;
          Table.cell_f (hb_total /. tw_total);
        ])
    ns;
  Table.note table
    "membership/s counts join, no-decision, reconfiguration and \
     state-transfer datagrams: the paper's zero-overhead claim";
  Table.note table
    "heartbeat baseline beats every D (same surveillance latency class)";
  Table.note table
    "tr = Totem-style token ring: one unicast per 10ms hold,      N-independent, but detection needs a full token-circulation timeout";
  [ table ]
