open Tasim
open Broadcast
module CS = Creator_state

let take engine =
  List.filter_map
    (fun p ->
      match Engine.state_of engine p with
      | Some s -> Some (p, s)
      | None -> None)
    (Proc_id.all ~n:(Engine.n engine))

type violation = { property : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.property v.detail

let body_descr = function
  | Oal.Update info -> Fmt.str "update %a" Proposal.pp_id info.Oal.proposal_id
  | Oal.Membership { group; group_id } ->
    Fmt.str "membership #%a %a" Group_id.pp group_id Proc_set.pp group

let bodies_equal a b =
  match (a, b) with
  | Oal.Update x, Oal.Update y -> Proposal.id_equal x.Oal.proposal_id y.Oal.proposal_id
  | Oal.Membership m1, Oal.Membership m2 ->
    Group_id.equal m1.group_id m2.group_id && Proc_set.equal m1.group m2.group
  | Oal.Update _, Oal.Membership _ | Oal.Membership _, Oal.Update _ -> false

let is_up_to_date p s =
  CS.up_to_date (Member.creator_state s)
  && Member.has_group s
  && Proc_set.mem p (Member.group s)

let ordinals_consistent states =
  (* members of the newest group share one decider chain: their ordinal
     assignments must agree. (A stale epoch may hold void assignments
     from a decider that crashed before anyone heard it; those members
     are excluded or rejoin with a fresh replica, so they are out of
     scope here.) *)
  let utd = List.filter (fun (p, s) -> is_up_to_date p s) states in
  let newest =
    List.fold_left
      (fun acc (_, s) -> Group_id.max acc (Member.group_id s))
      Group_id.none utd
  in
  let cohort =
    List.filter (fun (_, s) -> Group_id.equal (Member.group_id s) newest) utd
  in
  let seen : (int, Proc_id.t * Oal.body) Hashtbl.t = Hashtbl.create 64 in
  List.concat_map
    (fun (p, s) ->
      List.filter_map
        (fun e ->
          match Hashtbl.find_opt seen e.Oal.ordinal with
          | None ->
            Hashtbl.add seen e.Oal.ordinal (p, e.Oal.body);
            None
          | Some (q, body) ->
            if bodies_equal body e.Oal.body then None
            else
              Some
                {
                  property = "ordinal consistency";
                  detail =
                    Fmt.str
                      "ordinal %d is %s at %a but %s at %a" e.Oal.ordinal
                      (body_descr body) Proc_id.pp q (body_descr e.Oal.body)
                      Proc_id.pp p;
                })
        (Oal.entries (Member.oal_of s)))
    cohort

let views_consistent ~n:_ states =
  let utd =
    List.filter_map
      (fun (p, s) ->
        if is_up_to_date p s then
          Some (p, Member.group_id s, Member.group s)
        else None)
      states
  in
  (* same gid -> same group *)
  let by_gid : (Group_id.t, Proc_id.t * Proc_set.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.filter_map
    (fun (p, gid, g) ->
      match Hashtbl.find_opt by_gid gid with
      | None ->
        Hashtbl.add by_gid gid (p, g);
        None
      | Some (q, g') ->
        if Proc_set.equal g g' then None
        else
          Some
            {
              property = "view agreement";
              detail =
                Fmt.str "group #%a is %a at %a but %a at %a" Group_id.pp gid
                  Proc_set.pp g' Proc_id.pp q Proc_set.pp g Proc_id.pp p;
            })
    utd

let epochs_monotone states =
  (* within one process's ordering and acknowledgement list, membership
     descriptors must carry strictly increasing (lexicographic) group
     ids in ordinal order: every view change either increments seq
     inside an epoch or moves to a later epoch's formation. A violation
     means an old-epoch view survived past a re-formation — exactly the
     collision the epoch-aware formation guard exists to prevent. *)
  List.concat_map
    (fun (p, s) ->
      let descriptors =
        List.filter_map
          (fun e ->
            match e.Oal.body with
            | Oal.Membership { group_id; _ } -> Some (e.Oal.ordinal, group_id)
            | Oal.Update _ -> None)
          (Oal.entries (Member.oal_of s))
      in
      let rec check = function
        | (o1, g1) :: ((o2, g2) :: _ as rest) ->
          if Group_id.later g2 ~than:g1 then check rest
          else
            {
              property = "epoch monotonicity";
              detail =
                Fmt.str
                  "%a holds membership #%a at ordinal %d not later than \
                   #%a at ordinal %d"
                  Proc_id.pp p Group_id.pp g2 o2 Group_id.pp g1 o1;
            }
            :: check rest
        | [ _ ] | [] -> []
      in
      check descriptors)
    states

let groups_majority ~n states =
  List.filter_map
    (fun (p, s) ->
      if
        Member.has_group s
        && Proc_set.mem p (Member.group s)
        && not (Proc_set.is_majority (Member.group s) ~n)
      then
        Some
          {
            property = "majority";
            detail =
              Fmt.str "%a holds non-majority group %a" Proc_id.pp p
                Proc_set.pp (Member.group s);
          }
      else None)
    states

let check_all ~n states =
  ordinals_consistent states
  @ views_consistent ~n states
  @ groups_majority ~n states
  @ epochs_monotone states
