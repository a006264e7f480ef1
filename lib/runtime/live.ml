open Tasim
open Broadcast
open Timewheel

type msg = (string, string list) Full_stack.msg
type state = (string, string list) Full_stack.state
type obs = string Full_stack.obs
type node = (state, msg, obs) Node.t
type cluster = (state, msg, obs) Cluster.t

type config = {
  n : int;
  base_port : int;
  params : Params.t;
  cs_config : Clocksync.Protocol.config;
  store : Live_store.t;
  batching : bool option;
}

let config ?(base_port = 47800) ?params ?cs_config ?store ?batching ~n () =
  let params =
    match params with
    | Some p -> p
    | None ->
      (* the simulator's sigma = 1ms is optimistic for a real OS
         scheduler; widen the scheduling and clock-deviation budgets
         so a briefly preempted process is not declared late *)
      Params.make ~sigma:(Time.of_ms 5) ~epsilon:(Time.of_ms 5) ~n ()
  in
  let cs_config =
    match cs_config with
    | Some c -> c
    | None -> Clocksync.Protocol.default_config ~n
  in
  let store = match store with Some s -> s | None -> Live_store.in_memory () in
  { n; base_port; params; cs_config; store; batching }

type view = {
  at : Time.t;
  proc : Proc_id.t;
  group : Proc_set.t;
  group_id : Group_id.t;
}

type recorder = {
  mutable views : view list;
  mutable started : Proc_id.t list;
  mutable delivered : (Proc_id.t * string) list;
}

let recorder () = { views = []; started = []; delivered = [] }

let record recorder ~proc at (o : obs) =
  match o with
  | Full_stack.Member_obs (Member.View_installed { group; group_id }) ->
    recorder.views <- { at; proc; group; group_id } :: recorder.views
  | Full_stack.Member_obs (Member.Delivered { proposal; _ }) ->
    recorder.delivered <-
      (proc, proposal.Proposal.payload) :: recorder.delivered
  | Full_stack.Member_started -> recorder.started <- proc :: recorder.started
  | Full_stack.Member_obs _ | Full_stack.Sync_obs _ -> ()

let automaton_of cfg =
  let member_cfg =
    Member.config
      ~apply:(fun log u -> u :: log)
      ~persist:(fun ~self ~now:_ record ->
        Storage.Store.persist cfg.store ~self record)
      ~restore:(fun ~self ~now:_ -> Storage.Store.restore cfg.store ~self)
      ~initial_app:[] cfg.params
  in
  Full_stack.automaton member_cfg cfg.cs_config

let mk_node cfg ~clock ~self ?recorder ?on_log () =
  let port_of p = cfg.base_port + Proc_id.to_int p in
  let mk_transport stats =
    Transport.create
      ~encode_to:(Codec.encode_to Codec.string_payload)
      ~decode:(Codec.decode_bytes Codec.string_payload)
      ~kind_of:Full_stack.kind_of_msg ?batching:cfg.batching ~self ~n:cfg.n
      ~port_of ~stats ()
  in
  let on_obs =
    match recorder with
    | Some r -> fun at o -> record r ~proc:self at o
    | None -> fun _ _ -> ()
  in
  Node.create ~automaton:(automaton_of cfg) ~clock ~mk_transport ~on_obs
    ?on_log ()

let in_process cfg ?recorder ?on_log () =
  let clock = Clock.create () in
  let nodes =
    List.map
      (fun self ->
        let on_log = Option.map (fun f -> f self) on_log in
        mk_node cfg ~clock ~self ?recorder ?on_log ())
      (Proc_id.all ~n:cfg.n)
  in
  (clock, Cluster.create ~clock ~nodes)

let member_of node = Option.bind (Node.state node) Full_stack.member

let decider cluster =
  List.find_map
    (fun node ->
      match member_of node with
      | Some m when Member.is_decider m -> Some (Node.self node)
      | Some _ | None -> None)
    (Cluster.nodes cluster)

let agreed_view cluster =
  let members =
    List.filter_map
      (fun node ->
        if Node.is_up node then
          Option.map (fun m -> (Member.group m, Member.group_id m))
            (member_of node)
        else None)
      (Cluster.nodes cluster)
  in
  match members with
  | [] -> None
  | ((group, group_id) as first) :: rest ->
    if
      Group_id.is_known group_id
      && (not (Proc_set.is_empty group))
      && List.for_all
           (fun (g, gid) ->
             Proc_set.equal g group && Group_id.equal gid group_id)
           rest
    then Some first
    else None

let submit node ~semantics payload =
  Node.inject node (Full_stack.submit ~semantics payload)
