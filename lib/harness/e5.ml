open Tasim
open Timewheel
module CS = Creator_state
module GC = Group_creator

(* ------------------------------------------------------------------ *)
(* Fig. 2 transition matrix                                            *)

let states_under_test =
  [
    CS.Join;
    CS.Failure_free;
    CS.Wrong_suspicion { suspect = Proc_id.of_int 2 };
    CS.One_failure_receive { suspect = Proc_id.of_int 2; since = Time.zero };
    CS.One_failure_send { suspect = Proc_id.of_int 2; since = Time.zero };
    CS.N_failure { wait_until_slot = 4 };
  ]

(* event classes, instantiated for self = p1, group = {p0..p4},
   suspect = p2. p1 is p2's ring predecessor; p3 is p2's successor. *)
let env =
  {
    GC.self = Proc_id.of_int 1;
    group = Proc_set.full ~n:5;
    n = 5;
    majority = 3;
    current_slot = 10;
    single_failure_election = true;
  }

let event_classes =
  let nd ~from ~concur ~pred =
    GC.Nd_received
      {
        from = Proc_id.of_int from;
        suspect = Proc_id.of_int 2;
        since = Time.zero;
        concur;
        from_ring_predecessor = pred;
      }
  in
  [
    ("timeout", GC.Fd_timeout { suspect = Proc_id.of_int 2; since = Time.zero });
    ("ND concur,pred", nd ~from:0 ~concur:true ~pred:true);
    ("ND concur", nd ~from:3 ~concur:true ~pred:false);
    ("ND !concur", nd ~from:3 ~concur:false ~pred:false);
    ( "D member",
      GC.Decision_received
        {
          from = Proc_id.of_int 3;
          from_expected = true;
          from_suspect = false;
          in_new_group = true;
        } );
    ( "D excl",
      GC.Decision_received
        {
          from = Proc_id.of_int 3;
          from_expected = true;
          from_suspect = false;
          in_new_group = false;
        } );
    ( "D suspect",
      GC.Decision_received
        {
          from = Proc_id.of_int 2;
          from_expected = false;
          from_suspect = true;
          in_new_group = true;
        } );
    ( "R expected",
      GC.Reconfig_received { from_expected = true; from_member = true } );
    ("all heard", GC.All_new_members_heard);
  ]

let abbrev = function
  | CS.KJoin -> "J"
  | CS.KFailure_free -> "FF"
  | CS.KWrong_suspicion -> "WS"
  | CS.KOne_failure_receive -> "1R"
  | CS.KOne_failure_send -> "1S"
  | CS.KN_failure -> "NF"

let transition_matrix () =
  let table =
    Table.create
      ~title:
        "E5a: group-creator transition matrix (regenerates Fig. 2; self=p1, \
         suspect=p2, group=p0..p4)"
      ~columns:("state" :: List.map fst event_classes)
  in
  List.iter
    (fun state ->
      let row =
        List.map
          (fun (_, event) ->
            let state', directives = GC.step env state event in
            let dir_marks =
              List.filter_map
                (fun d ->
                  match d with
                  | GC.Send_no_decision _ -> Some "nd!"
                  | GC.Exclude_and_decide _ -> Some "excl!"
                  | GC.Take_over_decider -> Some "take!"
                  | GC.Resend_last_control -> Some "resend!"
                  | GC.Start_reconfiguration -> Some "rcfg!"
                  | GC.Adopt_decision -> None
                  | GC.Enter_join -> None)
                directives
            in
            String.concat " "
              (abbrev (CS.kind_of state') :: dir_marks))
          event_classes
      in
      Table.add_row table (Fmt.str "%a" CS.pp_kind (CS.kind_of state) :: row))
    states_under_test;
  Table.note table
    "cells: next state (J/FF/WS/1R/1S/NF) plus side effects (nd! send \
     no-decision, excl! exclude suspect & decide, take! take over decider, \
     resend! retransmit last control, rcfg! start reconfiguration)";
  table

(* ------------------------------------------------------------------ *)
(* randomized timed-spec check                                         *)

type spec_result = {
  runs : int;
  agreement_violations : int;
  majority_violations : int;
  converged : int;
  max_delta_us : float;
}

let random_schedule ~rng ~n ~horizon =
  (* a few crash / recover events, never killing a majority for good *)
  let events = ref [] in
  let crashed = ref Proc_set.empty in
  let t = ref (Time.of_sec 1) in
  while Time.compare !t horizon < 0 do
    t := Time.add !t (Time.of_ms (200 + Rng.int rng 800));
    if Time.compare !t horizon < 0 then begin
      let p = Proc_id.of_int (Rng.int rng n) in
      if Proc_set.mem p !crashed then begin
        crashed := Proc_set.remove p !crashed;
        events := (!t, `Recover p) :: !events
      end
      else if Proc_set.cardinal !crashed + 1 <= (n - 1) / 2 then begin
        crashed := Proc_set.add p !crashed;
        events := (!t, `Crash p) :: !events
      end
    end
  done;
  (* recover everyone at the horizon so the system can converge *)
  let heal =
    List.map (fun p -> (horizon, `Recover p)) (Proc_set.to_list !crashed)
  in
  (List.rev !events @ heal, horizon)

let one_spec_run ~n ~seed =
  let svc = Run.service ~seed ~n () in
  let rng = Rng.create (seed * 7919) in
  let svc = Run.settle svc in
  let engine = Service.engine svc in
  let quiesce =
    Time.add (Service.now svc) (Time.of_sec 6)
  in
  let schedule, _ = random_schedule ~rng ~n ~horizon:quiesce in
  List.iter
    (fun (t, ev) ->
      match ev with
      | `Crash p -> Service.crash_at svc t p
      | `Recover p -> Service.recover_at svc t p)
    schedule;
  (* property (2)+(5) sampling probe *)
  let agreement_violations = ref 0 in
  let majority_violations = ref 0 in
  (* check every installed view for majority *)
  Service.on_view svc (fun _proc v ->
      if not (Proc_set.is_majority v.Service.group ~n) then
        incr majority_violations);
  (* sample concurrent agreement every 50 ms *)
  let rec sample t =
    if Time.compare t (Time.add quiesce (Time.of_sec 6)) < 0 then begin
      Engine.at engine t (fun () ->
          (* all up-to-date members must agree on the newest gid *)
          let views =
            List.filter_map
              (fun id ->
                match Engine.state_of engine id with
                | Some s
                  when CS.up_to_date (Member.creator_state s)
                       && Member.has_group s ->
                  Some (Member.group_id s, Member.group s)
                | Some _ | None -> None)
              (Proc_id.all ~n)
          in
          let max_gid =
            List.fold_left
              (fun acc (gid, _) -> Broadcast.Group_id.max acc gid)
              Broadcast.Group_id.none views
          in
          let newest =
            List.filter
              (fun (gid, _) -> Broadcast.Group_id.equal gid max_gid)
              views
          in
          match newest with
          | (_, g) :: rest ->
            if not (List.for_all (fun (_, g') -> Proc_set.equal g g') rest)
            then incr agreement_violations
          | [] -> ());
      sample (Time.add t (Time.of_ms 50))
    end
  in
  sample (Service.now svc);
  Service.run svc ~until:(Time.add quiesce (Time.of_sec 6));
  (* convergence after quiescence *)
  let converged, delta =
    let views = Service.views_installed svc in
    let full_after =
      List.filter
        (fun (_, v) ->
          Time.compare v.Service.at quiesce >= 0
          && Proc_set.cardinal v.Service.group = n)
        views
    in
    match Service.agreed_view svc with
    | Some v when Proc_set.cardinal v.Service.group = n ->
      let last_install =
        List.fold_left
          (fun acc (_, v) -> Time.max acc v.Service.at)
          Time.zero full_after
      in
      (true, float_of_int (Time.sub last_install quiesce))
    | Some _ | None -> (false, nan)
  in
  ( !agreement_violations,
    !majority_violations,
    converged,
    delta,
    Run.survivors_consistent svc )

let spec_check ~seeds ~n =
  List.fold_left
    (fun acc seed ->
      let agree, majority, converged, delta, _consistent =
        one_spec_run ~n ~seed
      in
      {
        runs = acc.runs + 1;
        agreement_violations = acc.agreement_violations + agree;
        majority_violations = acc.majority_violations + majority;
        converged = (acc.converged + if converged then 1 else 0);
        max_delta_us =
          (if Float.is_nan delta then acc.max_delta_us
           else Float.max acc.max_delta_us delta);
      })
    {
      runs = 0;
      agreement_violations = 0;
      majority_violations = 0;
      converged = 0;
      max_delta_us = 0.0;
    }
    seeds

let run ?(quick = false) () =
  let matrix = transition_matrix () in
  let seeds = if quick then [ 41 ] else [ 41; 42; 43; 44; 45; 46 ] in
  let table =
    Table.create ~title:"E5b: Section 3 membership properties under churn"
      ~columns:
        [
          "N";
          "runs";
          "agreement violations";
          "majority violations";
          "converged";
          "max Delta after quiescence";
        ]
  in
  List.iter
    (fun n ->
      let r = spec_check ~seeds ~n in
      Table.add_row table
        [
          string_of_int n;
          string_of_int r.runs;
          string_of_int r.agreement_violations;
          string_of_int r.majority_violations;
          Fmt.str "%d/%d" r.converged r.runs;
          Table.cell_ms r.max_delta_us;
        ])
    (if quick then [ 5 ] else [ 5; 7 ]);
  Table.note table
    "random crash/recovery schedules; agreement sampled every 50ms over \
     up-to-date members (properties 2 and 5 must never be violated; \
     property 1/3/4: bounded convergence after quiescence)";
  [ matrix; table ]
