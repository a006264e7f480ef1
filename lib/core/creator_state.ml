open Tasim

type t =
  | Join
  | Failure_free
  | Wrong_suspicion of { suspect : Proc_id.t }
  | One_failure_receive of { suspect : Proc_id.t; since : Time.t }
  | One_failure_send of { suspect : Proc_id.t; since : Time.t }
  | N_failure of { wait_until_slot : int }

type kind = KJoin | KFailure_free | KWrong_suspicion | KOne_failure_receive
          | KOne_failure_send | KN_failure

let kind_of = function
  | Join -> KJoin
  | Failure_free -> KFailure_free
  | Wrong_suspicion _ -> KWrong_suspicion
  | One_failure_receive _ -> KOne_failure_receive
  | One_failure_send _ -> KOne_failure_send
  | N_failure _ -> KN_failure

let all_kinds =
  [
    KJoin; KFailure_free; KWrong_suspicion; KOne_failure_receive;
    KOne_failure_send; KN_failure;
  ]

let kind_to_string = function
  | KJoin -> "join"
  | KFailure_free -> "failure-free"
  | KWrong_suspicion -> "wrong-suspicion"
  | KOne_failure_receive -> "1-failure-receive"
  | KOne_failure_send -> "1-failure-send"
  | KN_failure -> "n-failure"

let up_to_date = function
  | Join | N_failure _ -> false
  | Failure_free | Wrong_suspicion _ | One_failure_receive _
  | One_failure_send _ ->
    true

let equal_kind (a : kind) (b : kind) = a = b
let pp_kind ppf k = Fmt.string ppf (kind_to_string k)

let pp ppf = function
  | Join -> Fmt.string ppf "join"
  | Failure_free -> Fmt.string ppf "failure-free"
  | Wrong_suspicion { suspect } ->
    Fmt.pf ppf "wrong-suspicion(%a)" Proc_id.pp suspect
  | One_failure_receive { suspect; _ } ->
    Fmt.pf ppf "1-failure-receive(%a)" Proc_id.pp suspect
  | One_failure_send { suspect; _ } ->
    Fmt.pf ppf "1-failure-send(%a)" Proc_id.pp suspect
  | N_failure { wait_until_slot } ->
    Fmt.pf ppf "n-failure(wait<%d)" wait_until_slot
