(* Tests for the chaos fault-plan fuzzer (lib/chaos): plan generation
   determinism, JSON artifact round-trips, shrinking (ddmin and the
   parameter pass, both pure and end-to-end against a deliberately
   broken invariant checker), the fixed-seed smoke sweep, replay of
   the two closed counterexample artifacts (chaos-11, chaos-17), and
   regressions for bugs the harness found. *)

open Tasim
module Plan = Chaos.Plan
module Runner = Chaos.Runner
module Fuzz = Chaos.Fuzz
module Shrink = Chaos.Shrink

let check = Alcotest.check
let plan_str p = Fmt.str "%a" Plan.pp p

(* ------------------------------------------------------------------ *)
(* plans *)

let test_plan_generation_deterministic () =
  let p1 = Plan.generate ~seed:7 ~n:5 ~ops:8 in
  let p2 = Plan.generate ~seed:7 ~n:5 ~ops:8 in
  check Alcotest.string "same seed, same plan" (plan_str p1) (plan_str p2);
  let p3 = Plan.generate ~seed:8 ~n:5 ~ops:8 in
  check Alcotest.bool "different seed, different plan" true
    (plan_str p1 <> plan_str p3);
  check Alcotest.int "requested op count" 8 (List.length p1.Plan.ops);
  List.iter
    (fun op ->
      check Alcotest.bool "op starts within horizon" true
        (Plan.op_time op <= Plan.horizon))
    p1.Plan.ops

(* one op of every kind, with every optional field exercised *)
let every_op_plan =
  {
    Plan.seed = 1;
    n = 5;
    ops =
      [
        Plan.Crash { at = Time.of_ms 100; proc = 2 };
        Plan.Recover { at = Time.of_ms 200; proc = 2 };
        Plan.Partition { at = Time.of_ms 300; block = [ 0; 1 ] };
        Plan.Heal { at = Time.of_ms 400 };
        Plan.Omission_burst
          { at = Time.of_ms 500; until = Time.of_ms 600; prob = 0.25; seed = 99 };
        Plan.Filter_window
          {
            at = Time.of_ms 700;
            until = Time.of_ms 800;
            kind = "decision";
            src = Some 1;
            dst = None;
          };
        Plan.Slow_window
          {
            at = Time.of_ms 900;
            until = Time.of_sec 1;
            prob = 0.5;
            delay_max = Time.of_ms 5;
          };
        Plan.Slow_member
          {
            at = Time.of_ms 1000;
            until = Time.of_ms 1050;
            proc = 4;
            prob = 0.5;
            delay_max = Time.of_ms 10;
          };
        Plan.Storage_fault
          {
            at = Time.of_ms 1100;
            until = Time.of_ms 1200;
            proc = Some 3;
            fault = Storage.Store.Torn_write;
          };
        Plan.Storage_fault
          {
            at = Time.of_ms 1300;
            until = Time.of_ms 1400;
            proc = None;
            fault = Storage.Store.Lost_flush;
          };
        Plan.Storage_fault
          {
            at = Time.of_ms 1400;
            until = Time.of_ms 1450;
            proc = Some 0;
            fault = Storage.Store.Io_error;
          };
        Plan.Link_window
          {
            at = Time.of_ms 1500;
            until = Time.of_ms 1700;
            src = Some 0;
            dst = None;
            delay_min = Time.of_ms 8;
            delay_max = Time.of_ms 10;
            omission_prob = 0.1;
            late_prob = 0.3;
            late_delay_max = Time.of_ms 40;
          };
      ];
  }

let test_plan_json_roundtrip () =
  let roundtrip p =
    (* through the JSON tree and through the printed string *)
    (match Plan.of_json (Plan.to_json p) with
    | Error e -> Alcotest.failf "of_json: %s" e
    | Ok p' -> check Alcotest.string "tree round-trip" (plan_str p) (plan_str p'));
    let s = Harness.Bench_json.to_string (Plan.to_json p) in
    match Harness.Bench_json.of_string s with
    | Error e -> Alcotest.failf "of_string: %s" e
    | Ok json -> (
      match Plan.of_json json with
      | Error e -> Alcotest.failf "of_json after print: %s" e
      | Ok p' ->
        check Alcotest.string "string round-trip" (plan_str p) (plan_str p');
        check Alcotest.bool "structural equality" true (p = p'))
  in
  roundtrip every_op_plan;
  roundtrip (Plan.generate ~seed:123 ~n:5 ~ops:8);
  check Alcotest.bool "garbage rejected" true
    (match Plan.of_json (Harness.Bench_json.Obj [ ("seed", Harness.Bench_json.Int 1) ]) with
    | Error _ -> true
    | Ok _ -> false);
  (* a storage fault travels by its Storage.Store name; any other name
     is refused *)
  let unknown_fault =
    Plan.to_json
      {
        every_op_plan with
        Plan.ops =
          [
            Plan.Storage_fault
              { at = 0; until = 1; proc = None; fault = Storage.Store.Io_error };
          ];
      }
    |> Harness.Bench_json.to_string
    |> String.split_on_char '"'
    |> List.map (function "io-error" -> "melted" | s -> s)
    |> String.concat "\""
  in
  check Alcotest.bool "unknown fault name rejected" true
    (match Harness.Bench_json.of_string unknown_fault with
    | Ok j -> Result.is_error (Plan.of_json j)
    | Error _ -> false)

let test_plan_file_roundtrip () =
  let file = Filename.temp_file "chaos-plan" ".json" in
  Plan.save file every_op_plan;
  (match Plan.load file with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok p ->
    check Alcotest.string "file round-trip" (plan_str every_op_plan) (plan_str p));
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* shrinking *)

let test_shrink_ddmin () =
  let violates l = List.mem 3 l && List.mem 7 l in
  Shrink.reset_probes ();
  check
    (Alcotest.list Alcotest.int)
    "1-minimal, order preserved" [ 3; 7 ]
    (Shrink.minimize ~violates [ 1; 3; 5; 7; 9 ]);
  check Alcotest.bool "oracle consulted" true (Shrink.probes () > 0);
  check
    (Alcotest.list Alcotest.int)
    "non-violating input unchanged" [ 1; 2 ]
    (Shrink.minimize ~violates:(fun _ -> false) [ 1; 2 ]);
  check
    (Alcotest.list Alcotest.int)
    "empty input" []
    (Shrink.minimize ~violates [])

let test_shrink_params () =
  (* halving candidates over ints: the pass must keep halving an op as
     long as the list still violates, then move on *)
  let candidates n = if n > 1 then [ n / 2 ] else [] in
  let violates l = List.exists (fun x -> x >= 4) l in
  check
    (Alcotest.list Alcotest.int)
    "greedy halving to the violation floor" [ 4; 1 ]
    (Shrink.shrink_params ~violates ~candidates [ 16; 3 ]);
  check
    (Alcotest.list Alcotest.int)
    "non-violating input unchanged" [ 2; 3 ]
    (Shrink.shrink_params ~violates ~candidates [ 2; 3 ]);
  check
    (Alcotest.list Alcotest.int)
    "empty input" []
    (Shrink.shrink_params ~violates ~candidates [])

let test_plan_shrink_op_strictly_smaller () =
  (* every candidate an op proposes must be strictly smaller in some
     parameter and identical in kind, or shrink_params need not
     terminate *)
  List.iter
    (fun op ->
      List.iter
        (fun op' ->
          check Alcotest.bool "candidate differs from the op" true (op' <> op);
          check Alcotest.bool "same time" true
            (Time.equal (Plan.op_time op') (Plan.op_time op)))
        (Plan.shrink_op op))
    every_op_plan.Plan.ops;
  (* fixpoint: repeatedly adopting the first candidate terminates *)
  let rec depth op k =
    if k > 64 then Alcotest.fail "shrink_op does not converge"
    else match Plan.shrink_op op with [] -> () | op' :: _ -> depth op' (k + 1)
  in
  List.iter (fun op -> depth op 0) every_op_plan.Plan.ops

(* A deliberately broken invariant checker: flags any down process.
   Every plan containing a crash "violates" as soon as the exclusion
   view installs, so shrinking must strip the noise ops and keep
   exactly the crash — the end-to-end path the real counterexamples
   take (ISSUE acceptance: seeded violation -> minimal op list ->
   replay from JSON artifact). *)
let down_check svc =
  let engine = Timewheel.Service.engine svc in
  let n = Engine.n engine in
  if List.for_all (fun p -> Engine.is_up engine p) (Proc_id.all ~n) then []
  else
    [
      {
        Timewheel.Invariant.property = "no-downtime";
        detail = "some process is down";
      };
    ]

let test_broken_checker_shrinks_and_replays () =
  let plan =
    {
      Plan.seed = 11;
      n = 5;
      ops =
        [
          Plan.Partition { at = Time.of_ms 200; block = [ 0; 1; 2 ] };
          Plan.Heal { at = Time.of_ms 400 };
          Plan.Crash { at = Time.of_ms 600; proc = 1 };
          Plan.Recover { at = Time.of_sec 2; proc = 1 };
        ];
    }
  in
  let outcome = Runner.run ~check:down_check plan in
  check Alcotest.bool "full plan violates" false (Runner.ok outcome);
  let shrunk = Runner.minimize ~check:down_check plan in
  (match shrunk.Plan.ops with
  | [ Plan.Crash { proc = 1; _ } ] -> ()
  | ops ->
    Alcotest.failf "expected the minimal plan [crash p1], got %d op(s): %a"
      (List.length ops) Plan.pp shrunk);
  (* the artifact replays to the same verdict *)
  let file = Filename.temp_file "chaos-shrunk" ".json" in
  Plan.save file shrunk;
  (match Plan.load file with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok loaded ->
    check Alcotest.string "artifact round-trip" (plan_str shrunk)
      (plan_str loaded);
    check Alcotest.bool "replay reproduces the violation" false
      (Runner.ok (Runner.run ~check:down_check loaded)));
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* runner outcomes pinned by handcrafted plans *)

(* Regression for the reconfiguration candidate-selection fix in
   [Member.try_reconfig_create]: after [crash p2] the group is
   {p0 p1 p3 p4}; isolating p3 shrinks it to {p0 p1 p4}; repartitioning
   around p0 reconnects the stale ex-member p3 with p1 and p4 just as
   they enter the n-failure election. p3's reconfig stream contaminates
   the heard-set, and electing "all of the heard-set" (the old reading
   of the paper's rule) can never succeed because p3 is outside the
   group — the election deadlocks forever. Choosing the new group as
   heard-set intersected with the current group converges. *)
let test_stale_member_cannot_veto_election () =
  let plan =
    {
      Plan.seed = 77;
      n = 5;
      ops =
        [
          Plan.Crash { at = Time.of_ms 500; proc = 2 };
          Plan.Partition { at = Time.of_ms 1500; block = [ 3 ] };
          Plan.Partition { at = Time.of_ms 3000; block = [ 0 ] };
        ];
    }
  in
  let outcome = Runner.run plan in
  check Alcotest.bool "no violation" true (Runner.ok outcome)

(* A plan that crashes the newest view down to a minority used to leave
   the service blocked for good (recovery was amnesiac, so the runner
   waived convergence as the paper's fail-safe answer). With stable
   storage the crashed members recover their formation epochs, the
   epilogue's mass recovery re-forms at a higher epoch, and the plan
   must now fully converge — the waiver is gone from the runner. *)
(* The slow-member op end to end through the runner: one sick machine
   for two seconds must at worst cause maskable wrong suspicions — the
   team reconverges and no membership invariant breaks. *)
let test_slow_member_plan_converges () =
  let plan =
    {
      Plan.seed = 21;
      n = 5;
      ops =
        [
          Plan.Slow_member
            {
              at = Time.of_ms 500;
              until = Time.of_ms 2500;
              proc = 3;
              prob = 0.5;
              delay_max = Time.of_ms 20;
            };
        ];
    }
  in
  let outcome = Runner.run plan in
  check Alcotest.bool "no violation" true (Runner.ok outcome)

(* The degrade path in the simulator: p1's writes fail with EIO over
   the view install that excludes p4, so its store keeps the full
   formation view. p1 then crashes and recovers inside the window: the
   record it recovers from must be that previous full view, the failed
   persists must be counted, and the run must stay clean. *)
let test_io_error_degrade_plan () =
  let p1 = Proc_id.of_int 1 in
  let plan =
    {
      Plan.seed = 31;
      n = 5;
      ops =
        [
          Plan.Storage_fault
            {
              at = Time.zero;
              until = Time.of_sec 4;
              proc = Some 1;
              fault = Storage.Store.Io_error;
            };
          Plan.Crash { at = Time.of_ms 200; proc = 4 };
          Plan.Crash { at = Time.of_ms 1500; proc = 1 };
          Plan.Recover { at = Time.of_ms 3000; proc = 1 };
          Plan.Recover { at = Time.of_ms 3200; proc = 4 };
        ];
    }
  in
  let svc = ref None in
  let p1_views = ref [] in
  let probe s =
    svc := Some s;
    Timewheel.Service.on_view s (fun p v ->
        if Proc_id.equal p p1 then p1_views := v :: !p1_views)
  in
  (* while p1 is down, sample the record it will recover from *)
  let while_down = ref None in
  let sample s =
    let engine = Timewheel.Service.engine s in
    if not (Engine.is_up engine p1) then
      while_down :=
        Storage.Store.restore (Timewheel.Service.storage s) ~self:p1;
    Timewheel.Invariant.(check_all ~n:(Engine.n engine) (take engine))
  in
  let outcome = Runner.run ~probe ~check:sample plan in
  check Alcotest.bool "no violation" true (Runner.ok outcome);
  let store =
    match !svc with
    | Some s -> Timewheel.Service.storage s
    | None -> Alcotest.fail "probe not called"
  in
  check Alcotest.bool "failed persists counted" true
    (Stats.count (Storage.Store.stats store) "live:store:persist-failed" > 0);
  let full (v : Timewheel.Service.view) = Proc_set.cardinal v.group = 5 in
  check Alcotest.bool "p1 installed a view excluding p4 under the fault" true
    (List.exists (fun v -> not (full v)) !p1_views);
  (* p1's last full view before it first installed a smaller one *)
  let rec last_full_before_shrink = function
    | v :: (w :: _ as rest) ->
      if full v && not (full w) then Some v else last_full_before_shrink rest
    | _ -> None
  in
  match (last_full_before_shrink (List.rev !p1_views), !while_down) with
  | Some v, Some r ->
    check Alcotest.bool "recovers from the previous full view" true
      (Broadcast.Group_id.equal r.Timewheel.Member.last_group_id
         v.Timewheel.Service.group_id
      && Proc_set.equal r.Timewheel.Member.last_group v.group)
  | None, _ -> Alcotest.fail "p1 never shrank from a full view"
  | _, None -> Alcotest.fail "no record to recover from while p1 was down"

(* The scenario adaptive suspicion exists for: one slow member whose
   inbound decisions keep getting late-rejected. With the fixed 2D
   deadline the slow member wrongly suspects its timely peers; with
   Lifeguard-style local health the late rejections stretch its own
   deadline instead, and those false suspicions disappear. (Timely
   members may still rightly suspect the slow member — a performance
   failure is a failure in the timed model — so only suspicions
   {e emitted by} the slow member count as false here.) *)
let slow = Proc_id.of_int 3

let slow_member_false_suspicions ~adaptive =
  let params = Timewheel.Params.make ~n:5 ~adaptive_suspicion:adaptive () in
  let svc = Harness.Run.service ~seed:5 ~params ~n:5 () in
  let suspicions = ref 0 in
  Timewheel.Service.on_obs svc (fun _at proc obs ->
      match obs with
      | Timewheel.Member.Suspected _ when Proc_id.equal proc slow ->
        incr suspicions
      | _ -> ());
  let svc = Harness.Run.settle svc in
  let engine = Timewheel.Service.engine svc in
  Engine.set_slow_proc engine ~proc:slow ~prob:0.5 ~delay_max:(Time.of_ms 20);
  Timewheel.Service.run svc
    ~until:(Time.add (Timewheel.Service.now svc) (Time.of_sec 5));
  !suspicions

let test_slow_member_adaptive_contrast () =
  let fixed = slow_member_false_suspicions ~adaptive:false in
  let adaptive = slow_member_false_suspicions ~adaptive:true in
  check Alcotest.bool
    (Fmt.str "fixed 2D deadline wrongly suspects (%d)" fixed)
    true (fixed > 0);
  check Alcotest.int "adaptive suspicion masks the slow member" 0 adaptive

(* The link-window op end to end: one direction of one link degraded to
   the delta edge with omission and lateness for two seconds. The group
   must mask or reconverge, and the outcome must carry the convergence
   metrics the topology bench series aggregates. *)
let test_link_window_plan_converges () =
  let plan =
    {
      Plan.seed = 13;
      n = 5;
      ops =
        [
          Plan.Link_window
            {
              at = Time.of_ms 500;
              until = Time.of_ms 2500;
              src = Some 0;
              dst = Some 1;
              delay_min = Time.of_ms 9;
              delay_max = Time.of_ms 10;
              omission_prob = 0.2;
              late_prob = 0.5;
              late_delay_max = Time.of_ms 40;
            };
        ];
    }
  in
  let outcome = Runner.run plan in
  check Alcotest.bool "no violation" true (Runner.ok outcome);
  check Alcotest.bool "formation time recorded" true
    (Time.compare outcome.Runner.formed_in Time.zero > 0);
  check Alcotest.bool "reconvergence time recorded" true
    (Option.is_some outcome.Runner.reconverged_in)

let test_majority_loss_recovers_via_epoch_bump () =
  let plan =
    {
      Plan.seed = 33;
      n = 5;
      ops =
        [
          Plan.Crash { at = Time.of_ms 500; proc = 2 };
          Plan.Partition { at = Time.of_ms 1500; block = [ 3 ] };
          Plan.Crash { at = Time.of_ms 3000; proc = 4 };
        ];
    }
  in
  let outcome = Runner.run plan in
  check Alcotest.bool "converges after recovery, no violation" true
    (Runner.ok outcome)

(* ------------------------------------------------------------------ *)
(* the fixed-seed smoke sweep *)

(* The sweep is a pure function of (seed, plans, n, ops). Seed 1 is
   the suite's fixed seed. Its 20 plans used to surface two genuine
   protocol counterexamples — plan #11 (amnesiac epoch fork after a
   mass crash) and plan #17 (wrongly-suspected process deaf to the
   reconfiguration stream) — both closed by the stable-storage epoch
   guard and the wrong-suspicion reconfig fix; their shrunk artifacts
   are pinned as replay regressions below. The sweep must now be
   entirely clean. If a protocol change makes a plan fail again, this
   test is the place that notices: fix the protocol (and re-baseline
   DESIGN.md), do not suppress. *)
let test_smoke_sweep_clean () =
  let r1 = Fuzz.sweep ~seed:1 ~plans:20 ~n:5 () in
  let r2 = Fuzz.sweep ~seed:1 ~plans:20 ~n:5 () in
  let indexes r = List.map (fun f -> f.Fuzz.index) r.Fuzz.failures in
  check
    (Alcotest.list Alcotest.int)
    "deterministic verdicts" (indexes r1) (indexes r2);
  check Alcotest.int "deterministic sampling" r1.Fuzz.views_sampled
    r2.Fuzz.views_sampled;
  check (Alcotest.list Alcotest.int) "no failing plan" [] (indexes r1);
  check Alcotest.bool "sweep ok" true (Fuzz.ok r1);
  check Alcotest.bool "invariants sampled" true (r1.Fuzz.views_sampled > 0)

(* ------------------------------------------------------------------ *)
(* the closed counterexamples, replayed from their pinned artifacts *)

(* test/artifacts/chaos-{11,17}.json are the shrunk plans the pre-fix
   harness produced for seed 1 (see EXPERIMENTS.md C0). Replaying them
   clean is the regression gate for both fixes. *)
let replay_artifact name =
  let file = Filename.concat "artifacts" name in
  match Plan.load file with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok plan ->
    let outcome = Runner.run plan in
    if not (Runner.ok outcome) then
      Alcotest.failf "%s replays dirty:@.%a" name
        Fmt.(vbox (list Runner.pp_violation))
        outcome.Runner.violations

let test_chaos_11_artifact_replays_clean () = replay_artifact "chaos-11.json"
let test_chaos_17_artifact_replays_clean () = replay_artifact "chaos-17.json"

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "generation deterministic" `Quick
            test_plan_generation_deterministic;
          Alcotest.test_case "json round-trip" `Quick test_plan_json_roundtrip;
          Alcotest.test_case "file round-trip" `Quick test_plan_file_roundtrip;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin" `Quick test_shrink_ddmin;
          Alcotest.test_case "parameter pass" `Quick test_shrink_params;
          Alcotest.test_case "shrink_op strictly smaller" `Quick
            test_plan_shrink_op_strictly_smaller;
          Alcotest.test_case "broken checker shrinks and replays" `Quick
            test_broken_checker_shrinks_and_replays;
        ] );
      ( "runner",
        [
          Alcotest.test_case "stale member cannot veto election" `Quick
            test_stale_member_cannot_veto_election;
          Alcotest.test_case "majority loss recovers via epoch bump" `Quick
            test_majority_loss_recovers_via_epoch_bump;
          Alcotest.test_case "slow member plan converges" `Quick
            test_slow_member_plan_converges;
          Alcotest.test_case "link window plan converges" `Quick
            test_link_window_plan_converges;
          Alcotest.test_case "slow member: adaptive suspicion contrast" `Quick
            test_slow_member_adaptive_contrast;
          Alcotest.test_case "io-error window: degrade, then recover" `Quick
            test_io_error_degrade_plan;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "fixed-seed smoke sweep clean" `Quick
            test_smoke_sweep_clean;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "chaos-11 replays clean" `Quick
            test_chaos_11_artifact_replays_clean;
          Alcotest.test_case "chaos-17 replays clean" `Quick
            test_chaos_17_artifact_replays_clean;
        ] );
    ]
