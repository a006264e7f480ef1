open Tasim
open Creator_state

type env = {
  self : Proc_id.t;
  group : Proc_set.t;
  n : int;
  majority : int;
  current_slot : int;
  single_failure_election : bool;
}

type event =
  | Fd_timeout of { suspect : Proc_id.t; since : Time.t }
  | Nd_received of {
      from : Proc_id.t;
      suspect : Proc_id.t;
      since : Time.t;
      concur : bool;
      from_ring_predecessor : bool;
    }
  | Decision_received of {
      from : Proc_id.t;
      from_expected : bool;
      from_suspect : bool;
      in_new_group : bool;
    }
  | Reconfig_received of { from_expected : bool; from_member : bool }
  | All_new_members_heard

type directive =
  | Send_no_decision of { suspect : Proc_id.t; since : Time.t }
  | Exclude_and_decide of { suspect : Proc_id.t }
  | Take_over_decider
  | Resend_last_control
  | Start_reconfiguration
  | Adopt_decision
  | Enter_join

let i_am_suspect_successor env suspect =
  match Proc_set.successor_in env.group suspect ~n:env.n with
  | Some p -> Proc_id.equal p env.self
  | None -> false

let i_am_suspect_predecessor env suspect =
  match Proc_set.predecessor_in env.group suspect ~n:env.n with
  | Some p -> Proc_id.equal p env.self
  | None -> false

(* "when p switches to n-failure state, it does not participate in a new
   election for the duration of N-1 slot times" *)
let enter_n_failure env =
  ( N_failure { wait_until_slot = env.current_slot + env.n - 1 },
    [ Start_reconfiguration ] )

(* Shared single-failure entry: the failure detector (or a concurred
   no-decision message) reports the suspect. The suspect's group
   successor starts the no-decision ring; everyone else waits for the
   ring to reach them. *)
let begin_single_failure env ~suspect ~since =
  if not env.single_failure_election then enter_n_failure env
  else if i_am_suspect_successor env suspect then
    ( One_failure_send { suspect; since },
      [ Send_no_decision { suspect; since } ] )
  else (One_failure_receive { suspect; since }, [])

(* Terminal step of the no-decision ring at the suspect's predecessor:
   all other members have concurred. Exclude the suspect if a group
   larger than a bare majority remains, else fall back to the slotted
   reconfiguration election. *)
let ring_terminates env ~suspect =
  if Proc_set.cardinal env.group > env.majority then
    (Failure_free, [ Exclude_and_decide { suspect } ])
  else enter_n_failure env

(* A no-decision from the ring predecessor, concurred with: relay it, or
   terminate the election when this process is the suspect's
   predecessor. *)
let ring_advance env ~suspect ~since =
  if i_am_suspect_predecessor env suspect then ring_terminates env ~suspect
  else
    ( One_failure_send { suspect; since },
      [ Send_no_decision { suspect; since } ] )

let on_decision state ~from_expected ~in_new_group =
  match (from_expected, in_new_group) with
  | true, true -> (Failure_free, [ Adopt_decision ])
  | true, false -> (Join, [ Adopt_decision; Enter_join ])
  | false, _ ->
    (* information is always welcome; the state machine only moves on a
       decision that satisfies the surveillance *)
    (state, [ Adopt_decision ])

let step env state event =
  match (state, event) with
  (* ------------------------------------------------------------ join *)
  | Join, Decision_received { in_new_group; _ } ->
    if in_new_group then (Failure_free, [ Adopt_decision ])
    else (Join, [ Adopt_decision ])
  | Join, (Fd_timeout _ | Nd_received _ | Reconfig_received _
          | All_new_members_heard) ->
    (Join, [])
  (* ---------------------------------------------------- failure-free *)
  | Failure_free, Fd_timeout { suspect; since } ->
    begin_single_failure env ~suspect ~since
  | Failure_free, Nd_received { suspect; since; concur; from_ring_predecessor; _ }
    ->
    if not concur then
      if Proc_id.equal suspect env.self then
        (Wrong_suspicion { suspect }, [ Resend_last_control ])
      else if from_ring_predecessor then
        (* the no-decision sender's successor holds the decision the
           sender missed: it takes over the decider role at once and the
           suspicion is masked without a membership change *)
        (Failure_free, [ Take_over_decider ])
      else (Wrong_suspicion { suspect }, [])
    else if from_ring_predecessor then ring_advance env ~suspect ~since
    else (One_failure_receive { suspect; since }, [])
  | Failure_free, Decision_received { from_expected; in_new_group; _ } ->
    on_decision state ~from_expected ~in_new_group
  | Failure_free, Reconfig_received { from_expected; _ } ->
    if from_expected then enter_n_failure env else (state, [])
  | Failure_free, All_new_members_heard -> (state, [])
  (* ------------------------------------------------- wrong-suspicion *)
  | Wrong_suspicion { suspect }, Nd_received { from_ring_predecessor; _ } ->
    if Proc_id.equal suspect env.self then (state, [ Resend_last_control ])
    else if from_ring_predecessor then (Failure_free, [ Take_over_decider ])
    else (state, [])
  | Wrong_suspicion _, Decision_received { from_expected; in_new_group; _ }
    ->
    on_decision state ~from_expected ~in_new_group
  | Wrong_suspicion _, Fd_timeout _ -> enter_n_failure env
  | Wrong_suspicion _, Reconfig_received { from_expected; from_member } ->
    (* A wrongly-suspected process's surveillance can point at nobody
       (its ring successor may be itself, which suspends the FD), so
       [from_expected] alone would leave it deaf to the reconfig
       stream when the rest of the group collapses to n-failure — and
       an election needing its vote deadlocks (chaos counterexample
       chaos-17). In this state a reconfiguration from any current
       group member is believable: the group has given up on the ring. *)
    if from_expected || from_member then enter_n_failure env
    else (state, [])
  | Wrong_suspicion _, All_new_members_heard -> (state, [])
  (* ----------------------------------------------- 1-failure-receive *)
  | ( One_failure_receive { suspect; since },
      Nd_received { suspect = s; from_ring_predecessor; concur; _ } ) ->
    if from_ring_predecessor && Proc_id.equal s suspect && concur then
      ring_advance env ~suspect ~since
    else (state, [])
  | ( One_failure_receive { suspect; _ },
      Decision_received { from_expected; from_suspect; in_new_group; _ } )
    ->
    if from_suspect then
      (* the suspect is alive after all *)
      (Wrong_suspicion { suspect }, [ Adopt_decision ])
    else on_decision state ~from_expected ~in_new_group
  | One_failure_receive _, Fd_timeout _ -> enter_n_failure env
  | One_failure_receive _, Reconfig_received { from_expected; _ } ->
    if from_expected then enter_n_failure env else (state, [])
  | One_failure_receive _, All_new_members_heard -> (state, [])
  (* -------------------------------------------------- 1-failure-send *)
  | One_failure_send _, Nd_received _ -> (state, [])
  | ( One_failure_send _,
      Decision_received { from_expected; in_new_group; _ } ) ->
    on_decision state ~from_expected ~in_new_group
  | One_failure_send _, Fd_timeout _ -> enter_n_failure env
  | One_failure_send _, Reconfig_received { from_expected; _ } ->
    if from_expected then enter_n_failure env else (state, [])
  | One_failure_send _, All_new_members_heard -> (state, [])
  (* ------------------------------------------------------- n-failure *)
  | N_failure _, Decision_received { in_new_group; _ } ->
    if in_new_group then (Failure_free, [ Adopt_decision ])
    else (state, [ Adopt_decision ])
  | N_failure _, All_new_members_heard -> (Join, [ Enter_join ])
  | N_failure _, (Fd_timeout _ | Nd_received _ | Reconfig_received _) ->
    (state, [])
