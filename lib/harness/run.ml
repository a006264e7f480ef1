open Tasim
open Timewheel

type svc = (int, int list) Service.t

type watcher = {
  mutable suspicions : (Time.t * Proc_id.t * Proc_id.t) list; (* at, by, suspect *)
}

let service ?(seed = 1) ?(omission = 0.0) ?(late = 0.0) ?(slow = 0.0) ?params
    ~n () =
  let params =
    match params with Some p -> p | None -> Params.make ~pacing:Paced ~n ()
  in
  let net =
    {
      Net.default_config with
      Net.delta = params.Params.delta;
      omission_prob = omission;
      late_prob = late;
      late_delay_max = Time.mul params.Params.delta 5;
    }
  in
  let engine_config =
    {
      Engine.default_config with
      Engine.net;
      seed;
      slow_prob = slow;
      slow_delay_max = Time.mul params.Params.sigma 20;
    }
  in
  Service.create ~engine_config ~clocks:Service.Oracle
    ~apply:(fun acc v -> v :: acc)
    ~initial_app:[] params

let settle (svc : svc) =
  let params = Service.params svc in
  let cycle = Params.cycle params in
  let rec wait tries =
    if tries = 0 then failwith "Run.settle: initial group did not form";
    Service.run svc ~until:(Time.add (Service.now svc) cycle);
    match Service.agreed_view svc with
    | Some v when Proc_set.cardinal v.Service.group = params.Params.n ->
      (* one more cycle of margin so rotation is well underway *)
      Service.run svc ~until:(Time.add (Service.now svc) cycle);
      svc
    | Some _ | None -> wait (tries - 1)
  in
  wait 20

let counters_snapshot (svc : svc) = Stats.counters (Service.stats svc)

let counters_diff ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let prev = try List.assoc name before with Not_found -> 0 in
      if v - prev <> 0 then Some (name, v - prev) else None)
    after

let sum_prefixed counters ~prefixes =
  List.fold_left
    (fun acc (name, v) ->
      if List.exists (fun prefix -> String.starts_with ~prefix name) prefixes
      then acc + v
      else acc)
    0 counters

let sent_matching counters ~prefixes =
  sum_prefixed counters ~prefixes:(List.map (( ^ ) "sent:") prefixes)

type view_change = {
  victim_gone : Time.t option;
  suspicion : Time.t option;
  views : int;
}

let watch_views (svc : svc) =
  let probe = { suspicions = [] } in
  Service.on_obs svc (fun at proc obs ->
      match obs with
      | Member.Suspected { suspect } ->
        probe.suspicions <- (at, proc, suspect) :: probe.suspicions
      | _ -> ());
  probe

let measure_exclusion probe (svc : svc) ~fault_at ~victims =
  let n = (Service.params svc).Params.n in
  let survivors =
    List.filter
      (fun id -> not (Proc_set.mem id victims))
      (Proc_id.all ~n)
  in
  let views = Service.views_installed svc in
  let after_fault =
    List.filter (fun (_, v) -> Time.compare v.Service.at fault_at >= 0) views
  in
  (* for each survivor, the first time it installed a view excluding all
     victims (and containing itself) *)
  let first_good p =
    List.find_map
      (fun (proc, v) ->
        if
          Proc_id.equal proc p
          && Proc_set.is_empty (Proc_set.inter v.Service.group victims)
          && Proc_set.mem p v.Service.group
        then Some v.Service.at
        else None)
      after_fault
  in
  let times = List.map first_good survivors in
  let victim_gone =
    if List.for_all Option.is_some times then
      Some
        (List.fold_left
           (fun acc t -> Time.max acc (Option.get t))
           Time.zero times)
    else None
  in
  let suspicion =
    List.fold_left
      (fun acc (at, _, suspect) ->
        if Time.compare at fault_at >= 0 && Proc_set.mem suspect victims then
          match acc with
          | None -> Some at
          | Some t -> Some (Time.min t at)
        else acc)
      None probe.suspicions
  in
  { victim_gone; suspicion; views = List.length after_fault }

let survivors_consistent (svc : svc) =
  let n = (Service.params svc).Params.n in
  let logs =
    List.filter_map
      (fun id ->
        match Service.app_state svc id with
        | Some l when l <> [] -> Some (List.rev l)
        | Some _ | None -> None)
      (Proc_id.all ~n)
  in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  let compatible a b = is_prefix a b || is_prefix b a in
  let rec all_pairs = function
    | [] -> true
    | x :: rest -> List.for_all (compatible x) rest && all_pairs rest
  in
  all_pairs logs
