(* A replicated key-value store on the timewheel service.

   This is the paper's motivating use case: "implement a dependable
   service by a team of replicated servers" that "maintain a consistent
   replicated service state and, if one member fails, the others form a
   new group and continue to provide the service" (Section 1).

   Each replica applies totally ordered, strongly atomic updates to its
   local map. Clients submit at any replica. We kill the current decider
   mid-workload and show that every surviving replica ends with exactly
   the same store, and that a recovering replica is brought back in sync
   by the state transfer.

   Run with:  dune exec examples/replicated_kv.exe *)

open Tasim
open Timewheel
open Broadcast

(* ------------------------------------------------------------------ *)
(* the replicated application *)

module Kv = Map.Make (String)

type op = Put of string * int | Del of string

let apply store = function
  | Put (k, v) -> Kv.add k v store
  | Del k -> Kv.remove k store

let pp_store ppf store =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int))
    (Kv.bindings store)

(* ------------------------------------------------------------------ *)

let () =
  let n = 5 in
  let params = Params.make ~n () in
  let svc = Service.create ~apply ~initial_app:Kv.empty params in
  Service.run svc ~until:(Time.of_sec 1);

  (* workload: interleaved puts and deletes from all replicas *)
  let submit at origin op =
    Service.submit_at svc at (Proc_id.of_int origin)
      ~semantics:Semantics.total_strong op
  in
  let t0 = Time.of_sec 1 in
  let keys = [| "alpha"; "beta"; "gamma"; "delta" |] in
  for i = 0 to 39 do
    let at = Time.add t0 (Time.of_ms (25 * i)) in
    let key = keys.(i mod Array.length keys) in
    if i mod 7 = 6 then submit at (i mod n) (Del key)
    else submit at (i mod n) (Put (key, i))
  done;

  (* kill whoever holds the decider role at t0+500ms *)
  let engine = Service.engine svc in
  Engine.at engine (Time.add t0 (Time.of_ms 500)) (fun () ->
      (* between a decision send and its receipt nobody holds the role:
         fall back to a fixed member in that window *)
      let d = Option.value (Service.decider svc) ~default:(Proc_id.of_int 1) in
      Fmt.pr "[%a] crashing %a mid-workload@." Time.pp (Engine.now engine)
        Proc_id.pp d;
      Engine.crash_at engine (Engine.now engine) d);
  Service.run svc ~until:(Time.add t0 (Time.of_sec 3));

  (* all surviving replicas must agree exactly *)
  let stores =
    List.filter_map
      (fun p ->
        Option.map (fun s -> (p, s)) (Service.app_state svc p))
      (Proc_id.all ~n)
  in
  Fmt.pr "@.stores after decider crash:@.";
  List.iter
    (fun (p, store) -> Fmt.pr "  %a -> %a@." Proc_id.pp p pp_store store)
    stores;
  (match stores with
  | (_, first) :: rest ->
    let all_equal =
      List.for_all (fun (_, s) -> Kv.equal Int.equal s first) rest
    in
    Fmt.pr "replicas identical: %b@." all_equal
  | [] -> ());

  (* recover the crashed replica: the state transfer re-syncs it *)
  let crashed =
    List.find
      (fun p -> not (Engine.is_up engine p))
      (Proc_id.all ~n)
  in
  Fmt.pr "@.recovering %a ...@." Proc_id.pp crashed;
  Service.recover_at svc (Service.now svc) crashed;
  Service.run svc ~until:(Time.add (Service.now svc) (Time.of_sec 4));
  (match (Service.app_state svc crashed, stores) with
  | Some recovered, (_, reference) :: _ ->
    Fmt.pr "%a after rejoin -> %a@." Proc_id.pp crashed pp_store recovered;
    Fmt.pr "recovered replica in sync: %b@."
      (Kv.equal Int.equal recovered reference)
  | _ -> Fmt.pr "recovery failed@.");
  match Service.agreed_view svc with
  | Some v ->
    Fmt.pr "final view #%a: %a@." Group_id.pp v.Service.group_id Proc_set.pp
      v.Service.group
  | None -> Fmt.pr "no agreed view@."
