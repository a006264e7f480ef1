open Tasim
open Broadcast

type clocks = Perfect | Oracle

type view = { group : Proc_set.t; group_id : Group_id.t; at : Time.t }

type ('u, 'app) t = {
  params : Params.t;
  engine :
    (('u, 'app) Member.state, ('u, 'app) Control_msg.t, 'u Member.obs) Engine.t;
  storage : Member.persistent Storage.Store.t;
  mutable view_probes : (Proc_id.t -> view -> unit) list;
  mutable delivery_probes :
    (Proc_id.t -> at:Time.t -> 'u Proposal.t -> ordinal:int option -> unit)
    list;
  mutable views : (Proc_id.t * view) list; (* newest first *)
}

let create ?engine_config ?(clocks = Oracle) ?apply ~initial_app params =
  let base =
    match engine_config with
    | Some c -> c
    | None -> Engine.default_config
  in
  let engine_config =
    { base with Engine.net = { base.Engine.net with Net.delta = params.Params.delta } }
  in
  let n = params.Params.n in
  let engine = Engine.create engine_config ~n in
  Engine.classify engine Control_msg.kind;
  let clock_sources =
    match clocks with
    | Perfect -> Clocksync.Oracle.perfect ~n
    | Oracle ->
      Clocksync.Oracle.clocks (Engine.rng engine) ~n
        ~epsilon:params.Params.epsilon ~max_drift:1e-6
  in
  let storage = Storage.Store.in_memory () in
  (* members persist through the store keyed by their process id *)
  let member_cfg =
    Member.config ?apply
      ~persist:(fun ~self ~now:_ record ->
        Storage.Store.persist storage ~self record)
      ~restore:(fun ~self ~now:_ -> Storage.Store.restore storage ~self)
      ~initial_app params
  in
  let automaton = Member.automaton member_cfg in
  List.iter
    (fun id ->
      Engine.add_process engine id automaton
        ~clock:clock_sources.(Proc_id.to_int id)
        ())
    (Proc_id.all ~n);
  let t =
    {
      params;
      engine;
      storage;
      view_probes = [];
      delivery_probes = [];
      views = [];
    }
  in
  Engine.on_observe engine (fun at proc obs ->
      match obs with
      | Member.View_installed { group; group_id } ->
        let view = { group; group_id; at } in
        t.views <- (proc, view) :: t.views;
        List.iter (fun probe -> probe proc view) t.view_probes
      | Member.Delivered { proposal; ordinal } ->
        List.iter
          (fun probe -> probe proc ~at proposal ~ordinal)
          t.delivery_probes
      | Member.Transition _ | Member.Suspected _ | Member.Late_rejected _
      | Member.Became_decider | Member.Excluded ->
        ());
  t

let params t = t.params
let engine t = t.engine
let run t ~until = Engine.run t.engine ~until
let now t = Engine.now t.engine

let submit t proc ~semantics payload =
  Engine.inject t.engine proc (Member.submit ~semantics payload)

let submit_at t time proc ~semantics payload =
  Engine.inject_at t.engine time proc (Member.submit ~semantics payload)

let on_view t probe = t.view_probes <- t.view_probes @ [ probe ]
let on_delivery t probe = t.delivery_probes <- t.delivery_probes @ [ probe ]
let on_obs t probe = Engine.on_observe t.engine probe

let views_installed t = List.rev t.views

let current_view t proc =
  Member.(
    match Engine.state_of t.engine proc with
    | Some s when has_group s ->
      Some { group = group s; group_id = group_id s; at = Engine.now t.engine }
    | Some _ | None -> None)

let agreed_view t =
  let n = t.params.Params.n in
  let up_to_date id =
    (* fail-awareness: a member that knows its view is out of date is
       not counted *)
    match Engine.state_of t.engine id with
    | Some s -> Creator_state.up_to_date (Member.creator_state s)
    | None -> false
  in
  let members_with_views =
    List.filter_map
      (fun id ->
        if Engine.is_up t.engine id && up_to_date id then
          match current_view t id with
          | Some v when Proc_set.mem id v.group -> Some v
          | Some _ | None -> None
        else None)
      (Proc_id.all ~n)
  in
  match members_with_views with
  | [] -> None
  | v :: rest ->
    let newest =
      List.fold_left
        (fun best v ->
          if Group_id.later v.group_id ~than:best.group_id then v else best)
        v rest
    in
    let agree =
      List.for_all
        (fun (v : view) ->
          Group_id.equal v.group_id newest.group_id
          && Proc_set.equal v.group newest.group)
        members_with_views
    in
    if agree then Some newest else None

let decider t =
  List.find_opt
    (fun p ->
      match Engine.state_of t.engine p with
      | Some s -> Member.is_decider s
      | None -> false)
    (Proc_id.all ~n:t.params.Params.n)

let storage t = t.storage

let crash_at t time p =
  Engine.crash_at t.engine time p;
  (* scheduled after the crash thunk at the same instant (the event
     heap is stable): the store drops the crashed process's unflushed
     writes, keeping only durable records *)
  Engine.at t.engine time (fun () -> Storage.Store.note_crash t.storage ~self:p)
let recover_at t time p = Engine.recover_at t.engine time p
let partition_at t time blocks = Engine.partition_at t.engine time blocks
let heal_at t time = Engine.heal_at t.engine time

let drop_control t ?max_drops ~name ~kind ~src ~dst () =
  Net.add_filter (Engine.net t.engine) ?max_drops ~name
    (fun ~src:s ~dst:d msg ->
      String.equal (Control_msg.kind msg) kind
      && (match src with None -> true | Some x -> Proc_id.equal x s)
      && match dst with None -> true | Some x -> Proc_id.equal x d)

let enable_trace ?capacity t =
  let trace = Trace.create ?capacity () in
  Engine.set_trace t.engine trace;
  trace

let member_state t proc = Engine.state_of t.engine proc
let app_state t proc = Option.map Member.app (member_state t proc)
let stats t = Engine.stats t.engine
