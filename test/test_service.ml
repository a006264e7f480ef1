(* Tests of the user-facing Service API surface: observation plumbing,
   fault-injection helpers, trace recording, inspection. *)

open Tasim
open Timewheel
open Broadcast

let check = Alcotest.check
let pid = Proc_id.of_int

let make ?(seed = 2) ~n () = Harness.Run.service ~seed ~n ()

let test_on_view_fires_for_every_member () =
  let svc = make ~n:5 () in
  let count = ref 0 in
  Service.on_view svc (fun _p _v -> incr count);
  let _ = Harness.Run.settle svc in
  check Alcotest.int "five formation installs" 5 !count

let test_on_delivery_payloads () =
  let svc = make ~n:5 () in
  let got = ref [] in
  Service.on_delivery svc (fun proc ~at:_ proposal ~ordinal ->
      if Proc_id.equal proc (pid 3) then
        got := (proposal.Proposal.payload, ordinal) :: !got);
  let svc = Harness.Run.settle svc in
  Service.submit svc (pid 0) ~semantics:Semantics.total_strong 42;
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 1));
  match !got with
  | [ (42, Some _) ] -> ()
  | _ -> Alcotest.failf "expected one ordered delivery, got %d" (List.length !got)

let test_submit_before_formation_dropped () =
  let svc = make ~n:5 () in
  let delivered = ref 0 in
  Service.on_delivery svc (fun _ ~at:_ _ ~ordinal:_ -> incr delivered);
  (* submit while everyone is still in the join state *)
  Service.submit_at svc (Time.of_ms 10) (pid 0)
    ~semantics:Semantics.unordered_weak 1;
  Service.run svc ~until:(Time.of_sec 2);
  check Alcotest.int "nothing delivered" 0 !delivered

let test_views_installed_ordering () =
  let svc = make ~n:5 () in
  let svc = Harness.Run.settle svc in
  Service.crash_at svc (Time.add (Service.now svc) (Time.of_ms 100)) (pid 1);
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 3));
  let views = Service.views_installed svc in
  let times = List.map (fun (_, v) -> v.Service.at) views in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Time.compare a b <= 0 && sorted rest
    | _ -> true
  in
  check Alcotest.bool "time ordered" true (sorted times);
  check Alcotest.bool "two generations" true
    (List.exists (fun (_, v) -> Group_id.seq v.Service.group_id = 1) views)

let test_current_view_and_member_state () =
  let svc = make ~n:5 () in
  check Alcotest.bool "no view before formation" true
    (Service.current_view svc (pid 0) = None);
  let svc = Harness.Run.settle svc in
  (match Service.current_view svc (pid 0) with
  | Some v -> check Alcotest.int "full group" 5 (Proc_set.cardinal v.Service.group)
  | None -> Alcotest.fail "expected a view");
  match Service.member_state svc (pid 0) with
  | Some s ->
    check Alcotest.bool "failure-free" true
      (Creator_state.kind_of (Member.creator_state s)
      = Creator_state.KFailure_free)
  | None -> Alcotest.fail "state missing"

let test_drop_control_filter () =
  let svc = make ~n:5 () in
  let svc = Harness.Run.settle svc in
  (* drop ALL decisions from p0 to p1 for a while: p1 must still follow
     the group via other members' decisions *)
  Service.drop_control svc ~max_drops:30 ~name:"p0-p1" ~kind:"decision"
    ~src:(Some (pid 0)) ~dst:(Some (pid 1)) ();
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 3));
  let stats = Service.stats svc in
  check Alcotest.bool "filter dropped some" true
    (Stats.count stats "drop_reason:filter:p0-p1" > 0);
  match Service.agreed_view svc with
  | Some v -> check Alcotest.int "group survives" 5 (Proc_set.cardinal v.Service.group)
  | None -> Alcotest.fail "no agreement"

let test_enable_trace_records () =
  let svc = make ~n:5 () in
  let trace = Service.enable_trace svc in
  let svc = Harness.Run.settle svc in
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 1));
  check Alcotest.bool "decisions traced" true
    (Trace.count ~kind:"decision" trace > 0);
  check Alcotest.bool "joins traced" true (Trace.count ~kind:"join" trace > 0);
  (* filters compose with the trace: drops appear as Dropped entries *)
  Service.crash_at svc (Service.now svc) (pid 2);
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 1));
  let crashes =
    List.filter
      (fun (e : Trace.entry) ->
        match e.Trace.event with Trace.Crashed _ -> true | _ -> false)
      (Trace.entries trace)
  in
  check Alcotest.int "crash traced" 1 (List.length crashes)

let test_app_state_accessor () =
  let svc = make ~n:3 () in
  let svc = Harness.Run.settle svc in
  Service.submit svc (pid 0) ~semantics:Semantics.total_strong 7;
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 1));
  (match Service.app_state svc (pid 2) with
  | Some [ 7 ] -> ()
  | Some l -> Alcotest.failf "unexpected log of %d entries" (List.length l)
  | None -> Alcotest.fail "no app state");
  Service.crash_at svc (Service.now svc) (pid 2);
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_ms 100));
  check Alcotest.bool "down member has no app state" true
    (Service.app_state svc (pid 2) = None)

let test_agreed_view_none_during_election () =
  let svc = make ~n:5 () in
  let svc = Harness.Run.settle svc in
  (* freeze the network completely: everyone will end up in n-failure
     and, being fail-aware, nobody counts as up to date *)
  Service.partition_at svc (Service.now svc)
    [
      Proc_set.singleton (pid 0);
      Proc_set.singleton (pid 1);
      Proc_set.singleton (pid 2);
      Proc_set.singleton (pid 3);
      Proc_set.singleton (pid 4);
    ];
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 3));
  check Alcotest.bool "total partition: no up-to-date view" true
    (Service.agreed_view svc = None)

(* The decider lookup names the one member holding the role, and never
   a crashed one. *)
let test_decider_lookup () =
  let svc = Harness.Run.settle (make ~n:5 ()) in
  let holders () =
    List.filter
      (fun p ->
        match Service.member_state svc p with
        | Some s -> Member.is_decider s
        | None -> false)
      (Proc_id.all ~n:5)
  in
  (* between a decision send and its receipt nobody holds the role *)
  let rec await k =
    match Service.decider svc with
    | Some d -> d
    | None when k > 0 ->
      Service.run svc ~until:(Time.add (Service.now svc) (Time.of_ms 1));
      await (k - 1)
    | None -> Alcotest.fail "no decider within 1 s"
  in
  let d = await 1000 in
  check
    Alcotest.(list int)
    "the one holder" [ Proc_id.to_int d ]
    (List.map Proc_id.to_int (holders ()));
  let t = Service.now svc in
  Service.crash_at svc t d;
  let others = ref 0 in
  for i = 1 to 400 do
    Service.run svc ~until:(Time.add t (Time.of_ms (5 * i)));
    match Service.decider svc with
    | Some p when Proc_id.equal p d ->
      Alcotest.failf "crashed %a named decider" Proc_id.pp d
    | Some _ -> incr others
    | None -> ()
  done;
  check Alcotest.bool "the role moved on" true (!others > 0)

let () =
  Alcotest.run "service"
    [
      ( "observation",
        [
          Alcotest.test_case "view probes" `Quick test_on_view_fires_for_every_member;
          Alcotest.test_case "delivery probes" `Quick test_on_delivery_payloads;
          Alcotest.test_case "views ordering" `Quick test_views_installed_ordering;
        ] );
      ( "client",
        [
          Alcotest.test_case "submit pre-formation" `Quick
            test_submit_before_formation_dropped;
          Alcotest.test_case "app state" `Quick test_app_state_accessor;
        ] );
      ( "inspection",
        [
          Alcotest.test_case "current view / state" `Quick
            test_current_view_and_member_state;
          Alcotest.test_case "agreed view fail-aware" `Quick
            test_agreed_view_none_during_election;
          Alcotest.test_case "decider" `Quick test_decider_lookup;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "drop_control" `Quick test_drop_control_filter;
          Alcotest.test_case "trace" `Quick test_enable_trace_records;
        ] );
    ]
