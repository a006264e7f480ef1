(* Unit tests for the membership protocol's pure components: parameters,
   slot arithmetic, control messages, the failure detector, the
   group-creator FSM (every edge of Fig. 2) and the undeliverable
   proposal classification of Section 4.3. *)

open Tasim
open Broadcast
open Timewheel
module CS = Creator_state
module GC = Group_creator
module FD = Failure_detector

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let pid = Proc_id.of_int
let set_of ids = Proc_set.of_list (List.map pid ids)

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_defaults () =
  let p = Params.make ~n:5 () in
  check Alcotest.int "slot >= d + delta" (Time.of_ms 40) p.Params.slot_len;
  check Alcotest.int "cycle" (Time.of_ms 200) (Params.cycle p);
  check Alcotest.int "fd timeout = 2D" (Time.of_ms 60) (Params.fd_timeout p);
  check Alcotest.int "alive window = N slots" (Time.of_ms 200)
    (Params.alive_window p);
  check Alcotest.int "majority" 3 (Params.majority p);
  check Alcotest.int "late bound" (Time.of_ms 13) (Params.late_bound p);
  check Alcotest.bool "adaptive pacing" true (p.Params.pacing = Params.Adaptive)

let test_params_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Params.make ~n:1 ());
  raises (fun () -> Params.make ~n:5 ~slot_len:(Time.of_ms 10) ());
  raises (fun () -> Params.make ~n:5 ~d:Time.zero ());
  raises (fun () -> Params.make ~n:5 ~delta:Time.zero ())

(* ------------------------------------------------------------------ *)
(* Slots *)

let params5 = Params.make ~n:5 ()

let test_slots_index_owner () =
  check Alcotest.int "index 0" 0 (Slots.index params5 Time.zero);
  check Alcotest.int "index at boundary" 1
    (Slots.index params5 (Time.of_ms 40));
  check Alcotest.int "negative clamps" 0
    (Slots.index params5 (Time.of_ms (-5)));
  check Alcotest.int "owner wraps" 0
    (Proc_id.to_int (Slots.owner params5 5));
  check Alcotest.int "owner at" 2
    (Proc_id.to_int (Slots.owner_at params5 (Time.of_ms 95)));
  check Alcotest.int "start_of" (Time.of_ms 120) (Slots.start_of params5 3)

let test_slots_next_own () =
  (* p1 owns slots 1, 6, 11 ... (40ms each) *)
  check Alcotest.int "before own slot" (Time.of_ms 40)
    (Slots.next_own_slot params5 ~self:(pid 1) ~now:(Time.of_ms 10));
  check Alcotest.int "inside own slot -> next cycle" (Time.of_ms 240)
    (Slots.next_own_slot params5 ~self:(pid 1) ~now:(Time.of_ms 50));
  check (Alcotest.option Alcotest.int) "current own slot" (Some (Time.of_ms 40))
    (Slots.current_own_slot_start params5 ~self:(pid 1) ~now:(Time.of_ms 50));
  check (Alcotest.option Alcotest.int) "not own slot" None
    (Slots.current_own_slot_start params5 ~self:(pid 1) ~now:(Time.of_ms 90))

let test_slots_freshness_window () =
  (* from p0's slot at t=200 (slot 5), p1's message at slot 1 (t=40) is
     exactly N-1 = 4 slots back and must count as fresh *)
  check Alcotest.bool "n-1 slots back is fresh" true
    (Slots.in_last_k_slots params5 ~now:(Time.of_ms 200)
       ~sent_at:(Time.of_ms 40) ~k:4);
  check Alcotest.bool "n slots back is stale" false
    (Slots.in_last_k_slots params5 ~now:(Time.of_ms 240)
       ~sent_at:(Time.of_ms 40) ~k:4);
  check Alcotest.bool "future not counted" false
    (Slots.in_last_k_slots params5 ~now:(Time.of_ms 40)
       ~sent_at:(Time.of_ms 90) ~k:4)

let test_slots_own_latest () =
  (* p2 owns slot 2 (80-120ms) and slot 7 (280-320ms) *)
  check Alcotest.bool "latest slot" true
    (Slots.was_own_latest_slot params5 ~sender:(pid 2)
       ~sent_at:(Time.of_ms 90) ~now:(Time.of_ms 200));
  check Alcotest.bool "superseded by newer own slot" false
    (Slots.was_own_latest_slot params5 ~sender:(pid 2)
       ~sent_at:(Time.of_ms 90) ~now:(Time.of_ms 300));
  check Alcotest.bool "not the sender's slot" false
    (Slots.was_own_latest_slot params5 ~sender:(pid 2)
       ~sent_at:(Time.of_ms 50) ~now:(Time.of_ms 200))

let prop_slots_owner_consistent =
  QCheck.Test.make ~name:"slot owner owns exactly every n-th slot"
    QCheck.(int_bound 10_000_000)
    (fun t ->
      let s = Slots.index params5 t in
      Proc_id.to_int (Slots.owner params5 s) = s mod 5)

let prop_next_own_slot_is_future_and_owned =
  QCheck.Test.make ~name:"next_own_slot is strictly future and owned"
    QCheck.(pair (int_bound 4) (int_bound 2_000_000))
    (fun (p, now) ->
      let at = Slots.next_own_slot params5 ~self:(pid p) ~now in
      at > now && Proc_id.to_int (Slots.owner_at params5 at) = p)

(* ------------------------------------------------------------------ *)
(* Control messages *)

let test_control_msg_kinds () =
  let decision =
    Control_msg.Decision
      { d_ts = Time.zero; d_oal = Oal.empty; d_alive = Proc_set.empty }
  in
  let join =
    Control_msg.Join_msg
      {
        j_ts = Time.of_ms 5;
        j_list = set_of [ 1 ];
        j_alive = set_of [ 1 ];
        j_epoch = 0;
      }
  in
  check Alcotest.bool "decision is control" true
    (Control_msg.is_control decision);
  check Alcotest.bool "join is control" true (Control_msg.is_control join);
  check Alcotest.bool "submit is not" false
    (Control_msg.is_control
       (Control_msg.Submit
          { semantics = Semantics.unordered_weak; payload = () }));
  check (Alcotest.option Alcotest.int) "ts" (Some (Time.of_ms 5))
    (Control_msg.control_ts join);
  check Alcotest.string "kind" "join" (Control_msg.kind join)

(* ------------------------------------------------------------------ *)
(* Failure detector *)

let fd5 () = FD.create params5 ~self:(pid 0)

let test_fd_admit_fresh_stale_late () =
  let fd = fd5 () in
  let fd, v1 = FD.admit fd ~from:(pid 1) ~ts:(Time.of_ms 100) ~now:(Time.of_ms 105) in
  check Alcotest.bool "fresh" true (v1 = FD.Fresh);
  (* duplicate (same ts) *)
  let fd, v2 = FD.admit fd ~from:(pid 1) ~ts:(Time.of_ms 100) ~now:(Time.of_ms 106) in
  check Alcotest.bool "stale dup" true (v2 = FD.Stale);
  (* older ts (still timely, so staleness is what rejects it) *)
  let fd, v3 = FD.admit fd ~from:(pid 1) ~ts:(Time.of_ms 95) ~now:(Time.of_ms 106) in
  check Alcotest.bool "stale old" true (v3 = FD.Stale);
  (* late: apparent delay beyond delta + epsilon + sigma = 13ms *)
  let _, v4 = FD.admit fd ~from:(pid 2) ~ts:(Time.of_ms 100) ~now:(Time.of_ms 150) in
  check Alcotest.bool "late" true (v4 = FD.Late)

let test_fd_alive_window () =
  let fd = fd5 () in
  let fd, _ = FD.admit fd ~from:(pid 1) ~ts:(Time.of_ms 100) ~now:(Time.of_ms 105) in
  let alive = FD.alive_list fd ~now:(Time.of_ms 150) in
  check Alcotest.bool "heard process alive" true (Proc_set.mem (pid 1) alive);
  check Alcotest.bool "self always alive" true (Proc_set.mem (pid 0) alive);
  (* beyond N slots = 200ms the record ages out *)
  let alive = FD.alive_list fd ~now:(Time.of_ms 350) in
  check Alcotest.bool "aged out" false (Proc_set.mem (pid 1) alive)

let test_fd_surveillance () =
  let fd = fd5 () in
  let fd = FD.expect fd ~sender:(pid 2) ~base:(Time.of_ms 100) in
  check (Alcotest.option Alcotest.int) "deadline = base + 2D"
    (Some (Time.of_ms 160)) (FD.deadline fd);
  check Alcotest.bool "satisfied by right sender+fresh ts" true
    (FD.satisfied_by fd ~from:(pid 2) ~ts:(Time.of_ms 120));
  check Alcotest.bool "wrong sender" false
    (FD.satisfied_by fd ~from:(pid 3) ~ts:(Time.of_ms 120));
  (* epsilon slack: a timestamp slightly before base still satisfies *)
  check Alcotest.bool "epsilon slack" true
    (FD.satisfied_by fd ~from:(pid 2) ~ts:(Time.of_ms 99));
  check Alcotest.bool "too old" false
    (FD.satisfied_by fd ~from:(pid 2) ~ts:(Time.of_ms 90));
  check (Alcotest.option Alcotest.int) "timeout" (Some 2)
    (Option.map Proc_id.to_int (FD.timeout_suspect fd ~now:(Time.of_ms 160)));
  check (Alcotest.option Alcotest.int) "not yet" None
    (Option.map Proc_id.to_int (FD.timeout_suspect fd ~now:(Time.of_ms 159)));
  let fd = FD.suspend fd in
  check (Alcotest.option Alcotest.int) "suspended" None
    (Option.map Proc_id.to_int (FD.timeout_suspect fd ~now:(Time.of_sec 1)))

let test_fd_note_sent_blocks_self_concurrence () =
  let fd = fd5 () in
  let fd = FD.note_sent fd ~ts:(Time.of_ms 100) in
  check Alcotest.bool "own send counts as heard" true
    (FD.heard_after fd (pid 0) ~since:(Time.of_ms 50));
  check Alcotest.bool "not after own ts" false
    (FD.heard_after fd (pid 0) ~since:(Time.of_ms 100))

let test_fd_forget () =
  let fd = fd5 () in
  let fd, _ = FD.admit fd ~from:(pid 1) ~ts:(Time.of_ms 100) ~now:(Time.of_ms 105) in
  let fd = FD.forget fd (pid 1) in
  check Alcotest.bool "forgotten" false
    (Proc_set.mem (pid 1) (FD.alive_list fd ~now:(Time.of_ms 110)))

(* One freshness floor per sender: a duplicate is stale, a sender heard
   once is alive, and a message past late_bound is late. *)
let test_fd_freshness_floors () =
  let ms = Time.of_ms in
  let verdict =
    Alcotest.testable
      (fun ppf v ->
        Fmt.string ppf
          (match v with
          | FD.Fresh -> "fresh"
          | FD.Stale -> "stale"
          | FD.Late -> "late"))
      ( = )
  in
  let fd = fd5 () in
  let fd, v = FD.admit fd ~from:(pid 1) ~ts:(ms 110) ~now:(ms 112) in
  check verdict "first message fresh" FD.Fresh v;
  let fd, v = FD.admit fd ~from:(pid 1) ~ts:(ms 110) ~now:(ms 113) in
  check verdict "duplicate" FD.Stale v;
  let fd, v = FD.admit fd ~from:(pid 1) ~ts:(ms 105) ~now:(ms 113) in
  check verdict "older message" FD.Stale v;
  let fd, _ = FD.admit fd ~from:(pid 3) ~ts:(ms 110) ~now:(ms 112) in
  check Alcotest.(list int) "heard once, alive" [ 0; 1; 3 ]
    (List.map Proc_id.to_int
       (Proc_set.to_list (FD.alive_list fd ~now:(ms 150))));
  (* past late_bound (13 ms) the verdict is late; only adaptive
     suspicion turns that into local-health evidence *)
  let late fd =
    let fd, v = FD.admit fd ~from:(pid 1) ~ts:(ms 200) ~now:(ms 250) in
    check verdict "late message" FD.Late v;
    FD.health fd
  in
  check Alcotest.int "no health change by default" 0 (late fd);
  let adaptive =
    FD.create (Params.make ~n:5 ~adaptive_suspicion:true ()) ~self:(pid 0)
  in
  check Alcotest.int "adaptive: one step per late message" 1 (late adaptive)

(* ------------------------------------------------------------------ *)
(* Group creator: every edge of Fig. 2.

   Environment: team p0..p4, self varies per case, suspect = p2,
   group = full unless stated. p1 is p2's ring predecessor; p3 its
   successor. *)

let env ~self ?(group = set_of [ 0; 1; 2; 3; 4 ]) ?(sfe = true) () =
  {
    GC.self = pid self; group; n = 5; majority = 3; current_slot = 10;
    single_failure_election = sfe;
  }

let timeout = GC.Fd_timeout { suspect = pid 2; since = Time.zero }

let nd ~from ?(suspect = 2) ~concur ~pred () =
  GC.Nd_received
    {
      from = pid from;
      suspect = pid suspect;
      since = Time.zero;
      concur;
      from_ring_predecessor = pred;
    }

let decision ?(from = 3) ?(expected = true) ?(suspect = false) ?(member = true)
    () =
  GC.Decision_received
    {
      from = pid from;
      from_expected = expected;
      from_suspect = suspect;
      in_new_group = member;
    }

let reconfig ?(expected = true) ?(member = true) () =
  GC.Reconfig_received { from_expected = expected; from_member = member }

let kind = Alcotest.testable CS.pp_kind CS.equal_kind

let step_kind ~self ?group state event =
  let state', dirs = GC.step (env ~self ?group ()) state event in
  (CS.kind_of state', dirs)

let has dir dirs = List.mem dir dirs

let ws = CS.Wrong_suspicion { suspect = pid 2 }
let ofr = CS.One_failure_receive { suspect = pid 2; since = Time.zero }
let ofs = CS.One_failure_send { suspect = pid 2; since = Time.zero }
let nf = CS.N_failure { wait_until_slot = 14 }

(* --- failure-free --- *)

let test_ff_timeout_successor_sends_nd () =
  (* p3 is p2's successor: it starts the ring *)
  let k, dirs = step_kind ~self:3 CS.Failure_free timeout in
  check kind "to 1-failure-send" CS.KOne_failure_send k;
  check Alcotest.bool "sends nd" true
    (has (GC.Send_no_decision { suspect = pid 2; since = Time.zero }) dirs)

let test_ff_timeout_other_receives () =
  let k, dirs = step_kind ~self:0 CS.Failure_free timeout in
  check kind "to 1-failure-receive" CS.KOne_failure_receive k;
  check Alcotest.bool "silent" true (dirs = [])

let test_ff_nd_not_concur_to_wrong_suspicion () =
  let k, dirs =
    step_kind ~self:0 CS.Failure_free (nd ~from:3 ~concur:false ~pred:false ())
  in
  check kind "wrong suspicion" CS.KWrong_suspicion k;
  check Alcotest.bool "no resend (not the suspect)" false
    (has GC.Resend_last_control dirs)

let test_ff_nd_not_concur_suspect_resends () =
  (* p2 itself: must retransmit its last control message *)
  let k, dirs =
    step_kind ~self:2 CS.Failure_free (nd ~from:3 ~concur:false ~pred:false ())
  in
  check kind "suspect in wrong-suspicion" CS.KWrong_suspicion k;
  check Alcotest.bool "resends" true (has GC.Resend_last_control dirs)

let test_ff_nd_not_concur_from_predecessor_takes_over () =
  (* the no-decision sender's successor holds the decision: immediate
     takeover without membership change *)
  let k, dirs =
    step_kind ~self:4 CS.Failure_free (nd ~from:3 ~concur:false ~pred:true ())
  in
  check kind "stays failure-free" CS.KFailure_free k;
  check Alcotest.bool "takes over" true (has GC.Take_over_decider dirs)

let test_ff_nd_concur_relays () =
  (* p4 concurs, nd from its predecessor p3, p4 is not p2's pred *)
  let k, dirs =
    step_kind ~self:4 CS.Failure_free (nd ~from:3 ~concur:true ~pred:true ())
  in
  check kind "relays" CS.KOne_failure_send k;
  check Alcotest.bool "sends nd" true
    (has (GC.Send_no_decision { suspect = pid 2; since = Time.zero }) dirs)

let test_ff_nd_concur_terminator_excludes () =
  (* p1 is p2's ring predecessor: terminates the election *)
  let k, dirs =
    step_kind ~self:1 CS.Failure_free (nd ~from:0 ~concur:true ~pred:true ())
  in
  check kind "back to failure-free" CS.KFailure_free k;
  check Alcotest.bool "excludes" true
    (has (GC.Exclude_and_decide { suspect = pid 2 }) dirs)

let test_ff_nd_concur_exact_majority_reconfigures () =
  (* group of exactly 3 = majority: removal is not allowed *)
  let group = set_of [ 1; 2; 3 ] in
  let k, dirs =
    step_kind ~self:1 ~group CS.Failure_free
      (nd ~from:3 ~concur:true ~pred:true ())
  in
  check kind "n-failure" CS.KN_failure k;
  check Alcotest.bool "starts reconfiguration" true
    (has GC.Start_reconfiguration dirs)

let test_ff_decision_adopts () =
  let k, dirs = step_kind ~self:0 CS.Failure_free (decision ()) in
  check kind "stays" CS.KFailure_free k;
  check Alcotest.bool "adopts" true (has GC.Adopt_decision dirs)

let test_ff_decision_excluding_goes_join () =
  let k, dirs = step_kind ~self:0 CS.Failure_free (decision ~member:false ()) in
  check kind "join" CS.KJoin k;
  check Alcotest.bool "enter join" true (has GC.Enter_join dirs)

let test_ff_reconfig_from_expected () =
  let k, dirs = step_kind ~self:0 CS.Failure_free (reconfig ()) in
  check kind "n-failure" CS.KN_failure k;
  check Alcotest.bool "starts" true (has GC.Start_reconfiguration dirs)

let test_ff_reconfig_not_expected_ignored () =
  let k, dirs = step_kind ~self:0 CS.Failure_free (reconfig ~expected:false ()) in
  check kind "ignored" CS.KFailure_free k;
  check Alcotest.bool "no directives" true (dirs = [])

(* --- wrong-suspicion --- *)

let test_ws_nd_from_predecessor_takes_over () =
  let k, dirs = step_kind ~self:0 ws (nd ~from:4 ~concur:true ~pred:true ()) in
  check kind "failure-free" CS.KFailure_free k;
  check Alcotest.bool "takes over" true (has GC.Take_over_decider dirs)

let test_ws_nd_as_suspect_resends () =
  let state = CS.Wrong_suspicion { suspect = pid 0 } in
  let k, dirs =
    step_kind ~self:0 state (nd ~from:4 ~suspect:0 ~concur:false ~pred:true ())
  in
  check kind "stays" CS.KWrong_suspicion k;
  check Alcotest.bool "resends" true (has GC.Resend_last_control dirs)

let test_ws_nd_other_stays () =
  let k, dirs = step_kind ~self:0 ws (nd ~from:3 ~concur:true ~pred:false ()) in
  check kind "stays" CS.KWrong_suspicion k;
  check Alcotest.bool "silent" true (dirs = [])

let test_ws_timeout_to_n_failure () =
  let k, dirs = step_kind ~self:0 ws timeout in
  check kind "n-failure" CS.KN_failure k;
  check Alcotest.bool "starts" true (has GC.Start_reconfiguration dirs)

let test_ws_decision_member_to_ff () =
  let k, _ = step_kind ~self:0 ws (decision ()) in
  check kind "failure-free" CS.KFailure_free k

let test_ws_decision_excluded_to_join () =
  let k, _ = step_kind ~self:0 ws (decision ~member:false ()) in
  check kind "join" CS.KJoin k

let test_ws_reconfig_to_n_failure () =
  let k, _ = step_kind ~self:0 ws (reconfig ()) in
  check kind "n-failure" CS.KN_failure k

(* The chaos-17 fix: in wrong-suspicion the local failure detector is
   suspended, so the expected-sender prediction is stale; a reconfig
   from ANY current group member must pull the process into the
   election, while one from an outsider is still ignored. *)
let test_ws_reconfig_unexpected_member_joins_election () =
  let k, _ = step_kind ~self:0 ws (reconfig ~expected:false ~member:true ()) in
  check kind "n-failure" CS.KN_failure k

let test_ws_reconfig_from_outsider_ignored () =
  let k, _ =
    step_kind ~self:0 ws (reconfig ~expected:false ~member:false ())
  in
  check kind "stays wrong-suspicion" CS.KWrong_suspicion k

(* --- 1-failure-receive --- *)

let test_ofr_nd_relays () =
  let k, dirs = step_kind ~self:4 ofr (nd ~from:3 ~concur:true ~pred:true ()) in
  check kind "send state" CS.KOne_failure_send k;
  check Alcotest.bool "sends" true
    (has (GC.Send_no_decision { suspect = pid 2; since = Time.zero }) dirs)

let test_ofr_terminator () =
  let k, dirs = step_kind ~self:1 ofr (nd ~from:0 ~concur:true ~pred:true ()) in
  check kind "failure-free" CS.KFailure_free k;
  check Alcotest.bool "excludes" true
    (has (GC.Exclude_and_decide { suspect = pid 2 }) dirs)

let test_ofr_nd_not_from_predecessor_waits () =
  let k, dirs = step_kind ~self:0 ofr (nd ~from:3 ~concur:true ~pred:false ()) in
  check kind "stays" CS.KOne_failure_receive k;
  check Alcotest.bool "silent" true (dirs = [])

let test_ofr_decision_from_suspect_to_ws () =
  let k, dirs =
    step_kind ~self:0 ofr (decision ~from:2 ~expected:false ~suspect:true ())
  in
  check kind "wrong-suspicion" CS.KWrong_suspicion k;
  check Alcotest.bool "adopts info" true (has GC.Adopt_decision dirs)

let test_ofr_decision_from_expected_to_ff () =
  let k, _ = step_kind ~self:0 ofr (decision ()) in
  check kind "failure-free" CS.KFailure_free k

let test_ofr_timeout_to_nf () =
  let k, _ = step_kind ~self:0 ofr timeout in
  check kind "n-failure" CS.KN_failure k

(* --- 1-failure-send --- *)

let test_ofs_nd_stays () =
  let k, dirs = step_kind ~self:3 ofs (nd ~from:0 ~concur:true ~pred:true ()) in
  check kind "stays" CS.KOne_failure_send k;
  check Alcotest.bool "no double send" false
    (List.exists (function GC.Send_no_decision _ -> true | _ -> false) dirs)

let test_ofs_decision_to_ff () =
  let k, _ = step_kind ~self:3 ofs (decision ()) in
  check kind "failure-free" CS.KFailure_free k

let test_ofs_decision_excluded_to_join () =
  let k, _ = step_kind ~self:3 ofs (decision ~member:false ()) in
  check kind "join" CS.KJoin k

let test_ofs_timeout_to_nf () =
  let k, _ = step_kind ~self:3 ofs timeout in
  check kind "n-failure" CS.KN_failure k

let test_ofs_reconfig_to_nf () =
  let k, _ = step_kind ~self:3 ofs (reconfig ()) in
  check kind "n-failure" CS.KN_failure k

(* --- n-failure --- *)

let test_nf_decision_with_me_to_ff () =
  let k, dirs = step_kind ~self:0 nf (decision ()) in
  check kind "failure-free" CS.KFailure_free k;
  check Alcotest.bool "adopts" true (has GC.Adopt_decision dirs)

let test_nf_decision_without_me_waits () =
  let k, _ = step_kind ~self:0 nf (decision ~member:false ()) in
  check kind "stays until all heard" CS.KN_failure k

let test_nf_all_heard_to_join () =
  let k, dirs = step_kind ~self:0 nf GC.All_new_members_heard in
  check kind "join" CS.KJoin k;
  check Alcotest.bool "enter join" true (has GC.Enter_join dirs)

let test_nf_timeout_stays () =
  let k, _ = step_kind ~self:0 nf timeout in
  check kind "stays" CS.KN_failure k

let test_nf_wait_horizon () =
  (* entering n-failure from slot 10 must abstain until slot 10 + n - 1 *)
  let state', _ = GC.step (env ~self:0 ()) CS.Failure_free (reconfig ()) in
  match state' with
  | CS.N_failure { wait_until_slot } ->
    check Alcotest.int "wait until" 14 wait_until_slot
  | _ -> Alcotest.fail "expected n-failure"

(* --- join --- *)

let test_join_decision_member_to_ff () =
  let k, _ = step_kind ~self:0 CS.Join (decision ()) in
  check kind "failure-free" CS.KFailure_free k

let test_join_ignores_the_rest () =
  List.iter
    (fun event ->
      let k, dirs = step_kind ~self:0 CS.Join event in
      check kind "join inert" CS.KJoin k;
      check Alcotest.bool "silent" true (dirs = []))
    [ timeout; nd ~from:3 ~concur:true ~pred:true (); reconfig () ]

(* --- fail-awareness --- *)

let test_up_to_date () =
  let q = pid 2 in
  let cases =
    [
      (CS.Join, false);
      (CS.Failure_free, true);
      (CS.Wrong_suspicion { suspect = q }, true);
      (CS.One_failure_receive { suspect = q; since = Time.zero }, true);
      (CS.One_failure_send { suspect = q; since = Time.zero }, true);
      (CS.N_failure { wait_until_slot = 3 }, false);
    ]
  in
  check
    Alcotest.(list string)
    "one case per state" (List.map CS.kind_to_string CS.all_kinds)
    (List.map (fun (st, _) -> CS.kind_to_string (CS.kind_of st)) cases);
  List.iter
    (fun (st, expected) ->
      check Alcotest.bool (Fmt.str "%a" CS.pp st) expected (CS.up_to_date st))
    cases

(* ------------------------------------------------------------------ *)
(* Undeliverable classification (Section 4.3) *)

let sem_total_weak = Semantics.{ ordering = Total; atomicity = Weak }
let sem_total_strong = Semantics.{ ordering = Total; atomicity = Strong }

let entry ?(sem = sem_total_weak) ?(hdo = -1) ~origin ~seq ~acks oal =
  fst
    (Oal.append_update oal
       {
         Oal.proposal_id = { Proposal.origin = pid origin; seq };
         semantics = sem;
         send_ts = Time.zero;
         hdo;
       }
       ~acks:(set_of acks))

let id_ origin seq = { Proposal.origin = pid origin; seq }

let categories oal ~departed ~highest =
  Undeliverable.classify ~oal ~departed:(set_of departed)
    ~highest_known_ordinal:highest

let test_undeliverable_lost () =
  (* proposal by departed p2, acked only by p2 itself: lost *)
  let oal = entry ~origin:2 ~seq:0 ~acks:[ 2 ] Oal.empty in
  match categories oal ~departed:[ 2 ] ~highest:0 with
  | [ (id, Undeliverable.Lost) ] ->
    check Alcotest.bool "right proposal" true (Proposal.id_equal id (id_ 2 0))
  | _ -> Alcotest.fail "expected exactly one lost classification"

let test_undeliverable_survivor_ack_saves () =
  (* a survivor holds it: deliverable *)
  let oal = entry ~origin:2 ~seq:0 ~acks:[ 2; 3 ] Oal.empty in
  check Alcotest.int "no classification" 0
    (List.length (categories oal ~departed:[ 2 ] ~highest:0))

let test_undeliverable_orphan_order () =
  (* p2's first update is lost; its second (total order, held by a
     survivor) must be orphaned to preserve FIFO *)
  let oal = entry ~origin:2 ~seq:0 ~acks:[ 2 ] Oal.empty in
  let oal = entry ~origin:2 ~seq:1 ~acks:[ 2; 3 ] oal in
  let cats = categories oal ~departed:[ 2 ] ~highest:1 in
  check Alcotest.int "two condemned" 2 (List.length cats);
  check Alcotest.bool "second is orphan-order" true
    (List.exists
       (fun (id, c) ->
         Proposal.id_equal id (id_ 2 1) && c = Undeliverable.Orphan_order)
       cats)

let test_undeliverable_orphan_atomicity () =
  (* a lost update at ordinal 0; a strong-atomicity update by another
     departed member with hdo >= 0 depends on it *)
  let oal = entry ~origin:2 ~seq:0 ~acks:[ 2 ] Oal.empty in
  let oal =
    entry ~sem:sem_total_strong ~hdo:0 ~origin:4 ~seq:0 ~acks:[ 4; 3 ] oal
  in
  let cats = categories oal ~departed:[ 2; 4 ] ~highest:1 in
  check Alcotest.bool "orphan-atomicity found" true
    (List.exists
       (fun (id, c) ->
         Proposal.id_equal id (id_ 4 0) && c = Undeliverable.Orphan_atomicity)
       cats)

let test_undeliverable_unknown_dependency () =
  (* hdo beyond anything the survivors know *)
  let oal =
    entry ~sem:sem_total_strong ~hdo:42 ~origin:2 ~seq:0 ~acks:[ 2; 3 ]
      Oal.empty
  in
  match categories oal ~departed:[ 2 ] ~highest:5 with
  | [ (_, Undeliverable.Unknown_dependency) ] -> ()
  | _ -> Alcotest.fail "expected unknown-dependency"

let test_undeliverable_survivor_proposals_untouched () =
  (* survivors' updates are never classified *)
  let oal = entry ~origin:1 ~seq:0 ~acks:[ 1 ] Oal.empty in
  check Alcotest.int "survivor untouched" 0
    (List.length (categories oal ~departed:[ 2 ] ~highest:0))

let test_undeliverable_weak_not_unknown_dep () =
  (* weak atomicity never triggers dependency rules *)
  let oal = entry ~hdo:42 ~origin:2 ~seq:0 ~acks:[ 2; 3 ] Oal.empty in
  check Alcotest.int "weak untouched" 0
    (List.length (categories oal ~departed:[ 2 ] ~highest:0))

let test_undeliverable_cascade_fixpoint () =
  (* lost -> orphan-order -> orphan-atomicity chain in one pass *)
  let oal = entry ~origin:2 ~seq:0 ~acks:[ 2 ] Oal.empty in
  let oal = entry ~origin:2 ~seq:1 ~acks:[ 2; 3 ] oal in
  let oal =
    entry ~sem:sem_total_strong ~hdo:1 ~origin:4 ~seq:0 ~acks:[ 4; 3 ] oal
  in
  let cats = categories oal ~departed:[ 2; 4 ] ~highest:2 in
  check Alcotest.int "whole chain condemned" 3 (List.length cats)

let test_undeliverable_apply_marks () =
  let oal = entry ~origin:2 ~seq:0 ~acks:[ 2 ] Oal.empty in
  let cats = categories oal ~departed:[ 2 ] ~highest:0 in
  let oal = Undeliverable.apply ~oal cats in
  check Alcotest.int "marked in oal" 1
    (List.length (Oal.undeliverable_ids oal))

let test_pending_category () =
  check Alcotest.bool "unknown dep" true
    (Undeliverable.pending_category ~undeliverable_ordinals:[]
       ~highest_known_ordinal:5 ~semantics:sem_total_strong ~hdo:9
    = Some Undeliverable.Unknown_dependency);
  check Alcotest.bool "orphan atomicity" true
    (Undeliverable.pending_category ~undeliverable_ordinals:[ 3 ]
       ~highest_known_ordinal:5 ~semantics:sem_total_strong ~hdo:4
    = Some Undeliverable.Orphan_atomicity);
  check Alcotest.bool "clean" true
    (Undeliverable.pending_category ~undeliverable_ordinals:[ 9 ]
       ~highest_known_ordinal:5 ~semantics:sem_total_strong ~hdo:4
    = None);
  check Alcotest.bool "weak exempt" true
    (Undeliverable.pending_category ~undeliverable_ordinals:[ 0 ]
       ~highest_known_ordinal:0 ~semantics:sem_total_weak ~hdo:9
    = None)

let () =
  Alcotest.run "membership-unit"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "validation" `Quick test_params_validation;
        ] );
      ( "slots",
        [
          Alcotest.test_case "index/owner" `Quick test_slots_index_owner;
          Alcotest.test_case "next own" `Quick test_slots_next_own;
          Alcotest.test_case "freshness window" `Quick test_slots_freshness_window;
          Alcotest.test_case "own latest" `Quick test_slots_own_latest;
          qcheck prop_slots_owner_consistent;
          qcheck prop_next_own_slot_is_future_and_owned;
        ] );
      ( "control messages",
        [ Alcotest.test_case "kinds" `Quick test_control_msg_kinds ] );
      ( "failure detector",
        [
          Alcotest.test_case "admit verdicts" `Quick test_fd_admit_fresh_stale_late;
          Alcotest.test_case "alive window" `Quick test_fd_alive_window;
          Alcotest.test_case "surveillance" `Quick test_fd_surveillance;
          Alcotest.test_case "note_sent" `Quick test_fd_note_sent_blocks_self_concurrence;
          Alcotest.test_case "forget" `Quick test_fd_forget;
          Alcotest.test_case "freshness floors" `Quick test_fd_freshness_floors;
        ] );
      ( "fig2: failure-free",
        [
          Alcotest.test_case "timeout at successor" `Quick test_ff_timeout_successor_sends_nd;
          Alcotest.test_case "timeout elsewhere" `Quick test_ff_timeout_other_receives;
          Alcotest.test_case "nd !concur" `Quick test_ff_nd_not_concur_to_wrong_suspicion;
          Alcotest.test_case "nd !concur as suspect" `Quick test_ff_nd_not_concur_suspect_resends;
          Alcotest.test_case "nd !concur takeover" `Quick
            test_ff_nd_not_concur_from_predecessor_takes_over;
          Alcotest.test_case "nd concur relay" `Quick test_ff_nd_concur_relays;
          Alcotest.test_case "nd concur terminator" `Quick test_ff_nd_concur_terminator_excludes;
          Alcotest.test_case "exact majority" `Quick
            test_ff_nd_concur_exact_majority_reconfigures;
          Alcotest.test_case "decision adopts" `Quick test_ff_decision_adopts;
          Alcotest.test_case "decision excludes" `Quick test_ff_decision_excluding_goes_join;
          Alcotest.test_case "reconfig expected" `Quick test_ff_reconfig_from_expected;
          Alcotest.test_case "reconfig ignored" `Quick test_ff_reconfig_not_expected_ignored;
        ] );
      ( "fig2: wrong-suspicion",
        [
          Alcotest.test_case "takeover" `Quick test_ws_nd_from_predecessor_takes_over;
          Alcotest.test_case "suspect resends" `Quick test_ws_nd_as_suspect_resends;
          Alcotest.test_case "other nd stays" `Quick test_ws_nd_other_stays;
          Alcotest.test_case "timeout" `Quick test_ws_timeout_to_n_failure;
          Alcotest.test_case "decision member" `Quick test_ws_decision_member_to_ff;
          Alcotest.test_case "decision excluded" `Quick test_ws_decision_excluded_to_join;
          Alcotest.test_case "reconfig" `Quick test_ws_reconfig_to_n_failure;
          Alcotest.test_case "reconfig from unexpected member" `Quick
            test_ws_reconfig_unexpected_member_joins_election;
          Alcotest.test_case "reconfig from outsider ignored" `Quick
            test_ws_reconfig_from_outsider_ignored;
        ] );
      ( "fig2: 1-failure-receive",
        [
          Alcotest.test_case "relay" `Quick test_ofr_nd_relays;
          Alcotest.test_case "terminator" `Quick test_ofr_terminator;
          Alcotest.test_case "waits" `Quick test_ofr_nd_not_from_predecessor_waits;
          Alcotest.test_case "decision from suspect" `Quick test_ofr_decision_from_suspect_to_ws;
          Alcotest.test_case "decision expected" `Quick test_ofr_decision_from_expected_to_ff;
          Alcotest.test_case "timeout" `Quick test_ofr_timeout_to_nf;
        ] );
      ( "fig2: 1-failure-send",
        [
          Alcotest.test_case "nd stays" `Quick test_ofs_nd_stays;
          Alcotest.test_case "decision" `Quick test_ofs_decision_to_ff;
          Alcotest.test_case "decision excluded" `Quick test_ofs_decision_excluded_to_join;
          Alcotest.test_case "timeout" `Quick test_ofs_timeout_to_nf;
          Alcotest.test_case "reconfig" `Quick test_ofs_reconfig_to_nf;
        ] );
      ( "fig2: n-failure",
        [
          Alcotest.test_case "decision with me" `Quick test_nf_decision_with_me_to_ff;
          Alcotest.test_case "decision without me" `Quick test_nf_decision_without_me_waits;
          Alcotest.test_case "all heard" `Quick test_nf_all_heard_to_join;
          Alcotest.test_case "timeout stays" `Quick test_nf_timeout_stays;
          Alcotest.test_case "wait horizon" `Quick test_nf_wait_horizon;
        ] );
      ( "fig2: join",
        [
          Alcotest.test_case "decision member" `Quick test_join_decision_member_to_ff;
          Alcotest.test_case "inert" `Quick test_join_ignores_the_rest;
        ] );
      ( "fail-awareness",
        [ Alcotest.test_case "up to date" `Quick test_up_to_date ] );
      ( "undeliverable",
        [
          Alcotest.test_case "lost" `Quick test_undeliverable_lost;
          Alcotest.test_case "survivor ack saves" `Quick test_undeliverable_survivor_ack_saves;
          Alcotest.test_case "orphan-order" `Quick test_undeliverable_orphan_order;
          Alcotest.test_case "orphan-atomicity" `Quick test_undeliverable_orphan_atomicity;
          Alcotest.test_case "unknown-dependency" `Quick test_undeliverable_unknown_dependency;
          Alcotest.test_case "survivors untouched" `Quick
            test_undeliverable_survivor_proposals_untouched;
          Alcotest.test_case "weak exempt" `Quick test_undeliverable_weak_not_unknown_dep;
          Alcotest.test_case "cascade" `Quick test_undeliverable_cascade_fixpoint;
          Alcotest.test_case "apply" `Quick test_undeliverable_apply_marks;
          Alcotest.test_case "pending rules" `Quick test_pending_category;
        ] );
    ]
