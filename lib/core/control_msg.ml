open Tasim
open Broadcast

type ('u, 'app) t =
  | Submit of { semantics : Semantics.t; payload : 'u }
  | Proposal_msg of 'u Proposal.t
  | Retransmit of 'u Proposal.t
  | Nack of { missing : Proposal.id list }
  | Decision of decision
  | No_decision of 'u no_decision
  | Join_msg of join
  | Reconfig of 'u reconfig
  | State_transfer of ('u, 'app) state_transfer

and decision = { d_ts : Time.t; d_oal : Oal.t; d_alive : Proc_set.t }

and 'u no_decision = {
  nd_ts : Time.t;
  nd_suspect : Proc_id.t;
  nd_since : Time.t;
  nd_view : Oal.t;
  nd_dpd : Oal.update_info list;
  nd_alive : Proc_set.t;
}

and join = {
  j_ts : Time.t;
  j_list : Proc_set.t;
  j_alive : Proc_set.t;
  j_epoch : int;
}

and 'u reconfig = {
  r_ts : Time.t;
  r_list : Proc_set.t;
  r_last_decision_ts : Time.t;
  r_view : Oal.t;
  r_dpd : Oal.update_info list;
  r_alive : Proc_set.t;
}

and ('u, 'app) state_transfer = {
  st_ts : Time.t;
  st_group : Proc_set.t;
  st_group_id : Group_id.t;
  st_oal : Oal.t;
  st_app : 'app;
  st_buffers : 'u Buffers.t;
}

let is_control = function
  | Decision _ | No_decision _ | Join_msg _ | Reconfig _ -> true
  | Submit _ | Proposal_msg _ | Retransmit _ | Nack _ | State_transfer _ ->
    false

let control_ts = function
  | Decision d -> Some d.d_ts
  | No_decision nd -> Some nd.nd_ts
  | Join_msg j -> Some j.j_ts
  | Reconfig r -> Some r.r_ts
  | Submit _ | Proposal_msg _ | Retransmit _ | Nack _ | State_transfer _ ->
    None

let alive_of = function
  | Decision d -> Some d.d_alive
  | No_decision nd -> Some nd.nd_alive
  | Join_msg j -> Some j.j_alive
  | Reconfig r -> Some r.r_alive
  | Submit _ | Proposal_msg _ | Retransmit _ | Nack _ | State_transfer _ ->
    None

let kind = function
  | Submit _ -> "submit"
  | Proposal_msg _ -> "proposal"
  | Retransmit _ -> "retransmit"
  | Nack _ -> "nack"
  | Decision _ -> "decision"
  | No_decision _ -> "no-decision"
  | Join_msg _ -> "join"
  | Reconfig _ -> "reconfiguration"
  | State_transfer _ -> "state-transfer"

let pp ppf = function
  | Submit _ -> Fmt.string ppf "submit"
  | Proposal_msg p -> Fmt.pf ppf "proposal(%a)" Proposal.pp_id p.Proposal.id
  | Retransmit p ->
    Fmt.pf ppf "retransmit(%a)" Proposal.pp_id p.Proposal.id
  | Nack { missing } ->
    Fmt.pf ppf "nack(%a)" Fmt.(list ~sep:sp Proposal.pp_id) missing
  | Decision { d_ts; d_oal; _ } ->
    Fmt.pf ppf "decision(ts=%a oal=%a)" Time.pp d_ts Oal.pp d_oal
  | No_decision { nd_ts; nd_suspect; nd_since; _ } ->
    Fmt.pf ppf "no-decision(ts=%a suspect=%a since=%a)" Time.pp nd_ts
      Proc_id.pp nd_suspect Time.pp nd_since
  | Join_msg { j_ts; j_list; _ } ->
    Fmt.pf ppf "join(ts=%a list=%a)" Time.pp j_ts Proc_set.pp j_list
  | Reconfig { r_ts; r_list; r_last_decision_ts; _ } ->
    Fmt.pf ppf "reconfiguration(ts=%a list=%a last_d=%a)" Time.pp r_ts
      Proc_set.pp r_list Time.pp r_last_decision_ts
  | State_transfer { st_group; st_group_id; _ } ->
    Fmt.pf ppf "state-transfer(grp#%a %a)" Group_id.pp st_group_id Proc_set.pp
      st_group
