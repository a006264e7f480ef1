(* Crash-recovery paths through the stable store (DESIGN.md section 8).

   These tests exercise the service-level recovery story end to end:
   the per-process store persists the last installed view, a recovered
   process restores it, and the epoch-aware formation guard turns the
   record into correct rejoin behaviour — including the mass-crash case
   where the whole team restarts and must re-form at a strictly higher
   epoch instead of forking an amnesiac epoch-0 group (chaos-11). *)

open Tasim
open Timewheel
open Broadcast

let check = Alcotest.check
let pid = Proc_id.of_int
let gid_t = Alcotest.testable Group_id.pp Group_id.equal

let test_single_crash_recover_rejoin () =
  let svc = Harness.Run.service ~seed:7 ~n:5 () in
  let svc = Harness.Run.settle svc in
  let t0 = Service.now svc in
  Service.crash_at svc (Time.add t0 (Time.of_ms 100)) (pid 2);
  Service.recover_at svc (Time.add t0 (Time.of_sec 2)) (pid 2);
  Service.run svc ~until:(Time.add t0 (Time.of_sec 12));
  match Service.agreed_view svc with
  | None -> Alcotest.fail "no agreed view after rejoin"
  | Some v ->
    check Alcotest.int "full group again" 5 (Proc_set.cardinal v.Service.group);
    (* one member crashing never loses the majority: no epoch bump *)
    check Alcotest.int "still epoch 0" 0 (Group_id.epoch v.Service.group_id);
    (* the rejoined member's stable record tracks the agreed view *)
    let store = Service.storage svc in
    (match Storage.Store.restore store ~self:(pid 2) with
    | None -> Alcotest.fail "rejoined member has no durable record"
    | Some r ->
      check gid_t "persisted group id" v.Service.group_id
        r.Member.last_group_id;
      check Alcotest.bool "persisted membership" true
        (Proc_set.equal v.Service.group r.Member.last_group))

let test_mass_crash_single_epoch () =
  (* crash a majority, then recover everyone: the recovered processes
     know (from their stable records) that epoch 0 was lived through,
     so the team re-forms exactly once, at epoch 1 — never a second
     epoch-0 group beside the survivors' stalled election *)
  let n = 5 in
  let svc = Harness.Run.service ~seed:13 ~n () in
  let svc = Harness.Run.settle svc in
  let t0 = Service.now svc in
  List.iter
    (fun i -> Service.crash_at svc (Time.add t0 (Time.of_ms (100 + (10 * i)))) (pid i))
    [ 0; 1; 2 ];
  List.iter
    (fun i -> Service.recover_at svc (Time.add t0 (Time.of_sec (2 + i))) (pid i))
    [ 0; 1; 2 ];
  Service.run svc ~until:(Time.add t0 (Time.of_sec 30));
  (match Service.agreed_view svc with
  | None -> Alcotest.fail "team did not reconverge after mass crash"
  | Some v ->
    check Alcotest.int "full group again" n (Proc_set.cardinal v.Service.group);
    check Alcotest.int "re-formed at the bumped epoch" 1
      (Group_id.epoch v.Service.group_id);
    (* every member's current view carries that one epoch: no fork *)
    let epochs =
      List.filter_map
        (fun p ->
          Option.map
            (fun (w : Service.view) -> Group_id.epoch w.Service.group_id)
            (Service.current_view svc p))
        (Proc_id.all ~n)
    in
    check Alcotest.int "all five have a view" n (List.length epochs);
    check
      (Alcotest.list Alcotest.int)
      "exactly one epoch" [ 1; 1; 1; 1; 1 ] epochs;
    (* and the stable records agree, so a further restart stays safe *)
    let store = Service.storage svc in
    List.iter
      (fun p ->
        match Storage.Store.restore store ~self:p with
        | None -> Alcotest.failf "no durable record at %a" Proc_id.pp p
        | Some r ->
          check gid_t
            (Fmt.str "durable gid at %a" Proc_id.pp p)
            v.Service.group_id r.Member.last_group_id)
      (Proc_id.all ~n))

let () =
  Alcotest.run "recovery"
    [
      ( "stable-storage recovery",
        [
          Alcotest.test_case "crash, recover, rejoin" `Quick
            test_single_crash_recover_rejoin;
          Alcotest.test_case "mass crash re-forms at one higher epoch" `Quick
            test_mass_crash_single_epoch;
        ] );
    ]
