open Tasim
open Timewheel

type t = {
  name : string;
  doc : string;
  expected_outcome : string;
  inject : Run.svc -> Time.t -> unit;
}

let pid = Proc_id.of_int

let crash_current_decider svc at =
  let engine = Service.engine svc in
  Engine.at engine at (fun () ->
      let d = Option.value (Service.decider svc) ~default:(pid 1) in
      Engine.crash_at engine (Engine.now engine) d)

let all =
  [
    {
      name = "steady";
      doc = "failure-free run";
      expected_outcome = "no membership change after formation";
      inject = (fun _svc _t -> ());
    };
    {
      name = "crash";
      doc = "crash one member 1s after formation";
      expected_outcome =
        "single-failure election excludes the victim within ~2D + a ring \
         round";
      inject =
        (fun svc t -> Service.crash_at svc (Time.add t (Time.of_sec 1)) (pid 2));
    };
    {
      name = "crash-recover";
      doc = "crash one member, recover it 2s later";
      expected_outcome = "exclusion, then re-admission via join + state transfer";
      inject =
        (fun svc t ->
          Service.crash_at svc (Time.add t (Time.of_sec 1)) (pid 2);
          Service.recover_at svc (Time.add t (Time.of_sec 3)) (pid 2));
    };
    {
      name = "crash-decider";
      doc = "crash whoever holds the decider role 1s after formation";
      expected_outcome = "fast detection (the decider's silence is noticed at once)";
      inject = (fun svc t -> crash_current_decider svc (Time.add t (Time.of_sec 1)));
    };
    {
      name = "double-crash";
      doc = "crash two members simultaneously (reconfiguration election)";
      expected_outcome = "slotted election forms the majority group in ~2 cycles";
      inject =
        (fun svc t ->
          Service.crash_at svc (Time.add t (Time.of_sec 1)) (pid 1);
          Service.crash_at svc (Time.add t (Time.of_sec 1)) (pid 3));
    };
    {
      name = "partition";
      doc = "majority/minority partition, healed after 3s";
      expected_outcome =
        "majority side keeps operating; minority knows it is out of date; \
         full group after heal";
      inject =
        (fun svc t ->
          let n = (Service.params svc).Params.n in
          let half = (n / 2) + 1 in
          let majority = Proc_set.of_list (List.init half pid) in
          let minority =
            Proc_set.of_list (List.init (n - half) (fun i -> pid (half + i)))
          in
          Service.partition_at svc
            (Time.add t (Time.of_sec 1))
            [ majority; minority ];
          Service.heal_at svc (Time.add t (Time.of_sec 4)));
    };
    {
      name = "false-suspicion";
      doc = "drop one decision to the decider's successor (masked alarm)";
      expected_outcome = "zero membership changes: wrong-suspicion masks the alarm";
      inject =
        (fun svc t ->
          let engine = Service.engine svc in
          let n = (Service.params svc).Params.n in
          Engine.at engine (Time.add t (Time.of_sec 1)) (fun () ->
              Net.add_filter (Engine.net engine) ~max_drops:1 ~name:"one-drop"
                (fun ~src ~dst msg ->
                  Control_msg.kind msg = "decision"
                  &&
                  match Engine.state_of engine src with
                  | Some s -> (
                    match Proc_set.successor_in (Member.group s) src ~n with
                    | Some next -> Proc_id.equal next dst
                    | None -> false)
                  | None -> false)));
    };
    {
      name = "lossy";
      doc = "5% message omission throughout";
      expected_outcome =
        "nack recovery keeps deliveries complete; occasional masked alarms";
      inject =
        (fun svc t ->
          let engine = Service.engine svc in
          let rng = Rng.create 97 in
          ignore t;
          Net.add_filter (Engine.net engine) ~name:"background-loss"
            (fun ~src:_ ~dst:_ _ -> Rng.bool rng 0.05));
    };
    {
      name = "churn";
      doc = "a rolling wave of crash/recover across the team";
      expected_outcome = "full group restored once the wave passes";
      inject =
        (fun svc t ->
          let n = (Service.params svc).Params.n in
          List.iteri
            (fun i p ->
              let down = Time.add t (Time.of_ms (1000 + (800 * i))) in
              let up = Time.add down (Time.of_ms 600) in
              Service.crash_at svc down p;
              Service.recover_at svc up p)
            (Proc_id.all ~n));
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
let names () = List.map (fun s -> s.name) all
