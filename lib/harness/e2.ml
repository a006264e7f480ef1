open Tasim
open Timewheel

type sample = {
  n : int;
  role : string;
  detect_us : float;
  recover_us : float;
  nd_msgs : int;
}

(* Crash either the current decider or the member ring-farthest from it,
   chosen at fault time by a scripted action. *)
let one_run ~n ~seed ~crash_decider =
  let svc = Run.service ~seed ~n () in
  let watcher = Run.watch_views svc in
  let svc = Run.settle svc in
  let engine = Service.engine svc in
  let fault_at = Time.add (Service.now svc) (Time.of_sec 1) in
  let victim = ref None in
  Engine.at engine fault_at (fun () ->
      let target =
        match (crash_decider, Service.decider svc) with
        | true, Some d -> d
        | true, None -> Proc_id.of_int 0
        | false, Some d ->
          (* a member halfway around the ring from the decider *)
          Proc_id.of_int ((Proc_id.to_int d + (n / 2)) mod n)
        | false, None -> Proc_id.of_int 1
      in
      victim := Some target;
      Engine.crash_at engine (Engine.now engine) target);
  let before = Run.counters_snapshot svc in
  Service.run svc ~until:(Time.add fault_at (Time.of_sec 4));
  let after = Run.counters_snapshot svc in
  match !victim with
  | None -> None
  | Some v ->
    let change =
      Run.measure_exclusion watcher svc ~fault_at
        ~victims:(Proc_set.singleton v)
    in
    let nd_msgs =
      Run.sent_matching
        (Run.counters_diff ~before ~after)
        ~prefixes:[ "no-decision" ]
    in
    (match (change.Run.suspicion, change.Run.victim_gone) with
    | Some det, Some rec_ ->
      Some
        {
          n;
          role = (if crash_decider then "decider" else "member");
          detect_us = float_of_int (Time.sub det fault_at);
          recover_us = float_of_int (Time.sub rec_ fault_at);
          nd_msgs;
        }
    | _ -> None)

let heartbeat_run ~n ~seed =
  let cfg = Baseline.Heartbeat.default_config ~n in
  let engine_config = { Engine.default_config with Engine.seed } in
  let engine = Engine.create engine_config ~n in
  Engine.classify engine Baseline.Heartbeat.kind_of_msg;
  let views = ref [] in
  let suspicions = ref [] in
  Engine.on_observe engine (fun at _proc obs ->
      match obs with
      | Baseline.Heartbeat.View_installed { group; _ } ->
        views := (at, group) :: !views
      | Baseline.Heartbeat.Suspected { suspect } ->
        suspicions := (at, suspect) :: !suspicions);
  let automaton = Baseline.Heartbeat.automaton cfg in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  Engine.run engine ~until:(Time.of_sec 1);
  let fault_at = Time.of_sec 1 in
  let victim = Proc_id.of_int 1 in
  Engine.crash_at engine fault_at victim;
  Engine.run engine ~until:(Time.of_sec 4);
  let detect =
    List.fold_left
      (fun acc (at, s) ->
        if Proc_id.equal s victim && Time.compare at fault_at >= 0 then
          match acc with None -> Some at | Some t -> Some (Time.min t at)
        else acc)
      None !suspicions
  in
  let recover =
    (* last survivor's installation of a view without the victim *)
    let goods =
      List.filter
        (fun (at, g) ->
          Time.compare at fault_at >= 0 && not (Proc_set.mem victim g))
        !views
    in
    match goods with
    | [] -> None
    | _ -> Some (List.fold_left (fun acc (at, _) -> Time.max acc at) Time.zero goods)
  in
  match (detect, recover) with
  | Some d, Some r ->
    Some
      ( float_of_int (Time.sub d fault_at),
        float_of_int (Time.sub r fault_at) )
  | _ -> None

let token_ring_run ~n ~seed =
  let cfg = Baseline.Token_ring.default_config ~n in
  let engine_config = { Engine.default_config with Engine.seed } in
  let engine = Engine.create engine_config ~n in
  Engine.classify engine Baseline.Token_ring.kind_of_msg;
  let losses = ref [] in
  let rings = ref [] in
  Engine.on_observe engine (fun at proc obs ->
      match obs with
      | Baseline.Token_ring.Token_lost -> losses := (at, proc) :: !losses
      | Baseline.Token_ring.Ring_installed { members; _ } ->
        rings := (at, proc, members) :: !rings);
  let automaton = Baseline.Token_ring.automaton cfg in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  Engine.run engine ~until:(Time.of_sec 1);
  let fault_at = Time.of_sec 1 in
  let victim = Proc_id.of_int 1 in
  Engine.crash_at engine fault_at victim;
  Engine.run engine ~until:(Time.of_sec 4);
  let detect =
    List.fold_left
      (fun acc (at, _) ->
        if Time.compare at fault_at >= 0 then
          match acc with None -> Some at | Some t -> Some (Time.min t at)
        else acc)
      None !losses
  in
  let survivors =
    List.filter (fun p -> not (Proc_id.equal p victim)) (Proc_id.all ~n)
  in
  let recover =
    let ok p =
      List.find_map
        (fun (at, proc, members) ->
          if
            Proc_id.equal proc p
            && Time.compare at fault_at >= 0
            && not (Proc_set.mem victim members)
          then Some at
          else None)
        (List.rev !rings)
    in
    let times = List.map ok survivors in
    if List.for_all Option.is_some times then
      Some
        (List.fold_left (fun acc t -> Time.max acc (Option.get t)) Time.zero
           times)
    else None
  in
  match (detect, recover) with
  | Some d, Some r ->
    Some
      ( float_of_int (Time.sub d fault_at),
        float_of_int (Time.sub r fault_at) )
  | _ -> None

(* E2c: crash the member at a given ring distance ahead of the current
   decider and measure detection latency — exposing the sequential
   surveillance structure (the failure detector watches one process at a
   time, in decider order). *)
let distance_run ~n ~seed ~distance =
  let svc = Run.service ~seed ~n () in
  let watcher = Run.watch_views svc in
  let svc = Run.settle svc in
  let engine = Service.engine svc in
  let fault_at = Time.add (Service.now svc) (Time.of_sec 1) in
  let victim = ref None in
  Engine.at engine fault_at (fun () ->
      let decider =
        match Service.decider svc with Some d -> Proc_id.to_int d | None -> 0
      in
      let target = Proc_id.of_int ((decider + distance) mod n) in
      victim := Some target;
      Engine.crash_at engine (Engine.now engine) target);
  Service.run svc ~until:(Time.add fault_at (Time.of_sec 4));
  match !victim with
  | None -> None
  | Some v -> (
    let change =
      Run.measure_exclusion watcher svc ~fault_at
        ~victims:(Proc_set.singleton v)
    in
    match change.Run.suspicion with
    | Some det -> Some (float_of_int (Time.sub det fault_at))
    | None -> None)

let ring_distance_table ~quick =
  let n = 7 in
  let seeds = if quick then [ 61 ] else [ 61; 62; 63; 64; 65 ] in
  let table =
    Table.create
      ~title:"E2c: detection latency by ring distance from the decider (N=7)"
      ~columns:[ "distance"; "runs"; "detect mean"; "detect p95" ]
  in
  List.iter
    (fun distance ->
      let samples =
        List.filter_map (fun seed -> distance_run ~n ~seed ~distance) seeds
      in
      match Stats.summarize (Array.of_list samples) with
      | Some s ->
        Table.add_row table
          [
            string_of_int distance;
            string_of_int (List.length samples);
            Table.cell_ms s.Stats.mean;
            Table.cell_ms s.Stats.p95;
          ]
      | None ->
        Table.add_row table [ string_of_int distance; "0"; "-"; "-" ])
    (List.init (n - 1) (fun i -> i + 1));
  Table.note table
    "surveillance is sequential: a member is only watched when the      rotation reaches it, so detection grows with the victim's ring      distance ahead of the decider — the structural price of zero      failure-free overhead";
  table

let samples ?(quick = false) () =
  let ns = if quick then [ 5 ] else [ 3; 5; 7; 9 ] in
  let seeds = if quick then [ 11; 12 ] else [ 11; 12; 13; 14; 15; 16; 17; 18 ] in
  List.concat_map
    (fun n ->
      List.concat_map
        (fun crash_decider ->
          List.filter_map
            (fun seed -> one_run ~n ~seed ~crash_decider)
            seeds)
        [ true; false ])
    ns

let run ?(quick = false) () =
  let all = samples ~quick () in
  let table =
    Table.create ~title:"E2: single-failure recovery latency"
      ~columns:
        [
          "N";
          "crashed role";
          "runs";
          "detect mean";
          "recover mean";
          "recover p95";
          "nd msgs mean";
        ]
  in
  let ns = List.sort_uniq compare (List.map (fun s -> s.n) all) in
  List.iter
    (fun n ->
      List.iter
        (fun role ->
          let group =
            List.filter (fun s -> s.n = n && s.role = role) all
          in
          if group <> [] then begin
            let arr f = Array.of_list (List.map f group) in
            let detect = Stats.summarize (arr (fun s -> s.detect_us)) in
            let recover = Stats.summarize (arr (fun s -> s.recover_us)) in
            let nds = arr (fun s -> float_of_int s.nd_msgs) in
            let nd_mean =
              Array.fold_left ( +. ) 0.0 nds /. float_of_int (Array.length nds)
            in
            match (detect, recover) with
            | Some d, Some r ->
              Table.add_row table
                [
                  string_of_int n;
                  role;
                  string_of_int (List.length group);
                  Table.cell_ms d.Stats.mean;
                  Table.cell_ms r.Stats.mean;
                  Table.cell_ms r.Stats.p95;
                  Table.cell_f nd_mean;
                ]
            | _ -> ()
          end)
        [ "decider"; "member" ])
    ns;
  Table.note table
    "detection is bounded by 2D (60ms) + scheduling/clock slack; recovery \
     adds one no-decision hop per surviving member";
  let baseline =
    Table.create ~title:"E2b: heartbeat/coordinator baseline (N=5)"
      ~columns:[ "impl"; "detect"; "recover" ]
  in
  (match heartbeat_run ~n:5 ~seed:11 with
  | Some (d, r) ->
    Table.add_row baseline
      [ "heartbeat+coordinator"; Table.cell_ms d; Table.cell_ms r ]
  | None -> ());
  (match token_ring_run ~n:5 ~seed:11 with
  | Some (d, r) ->
    Table.add_row baseline
      [ "token ring (Totem-style)"; Table.cell_ms d; Table.cell_ms r ]
  | None -> ());
  (match List.filter (fun s -> s.n = 5 && s.role = "member") all with
  | [] -> ()
  | group ->
    let arr f = Array.of_list (List.map f group) in
    (match
       ( Stats.summarize (arr (fun s -> s.detect_us)),
         Stats.summarize (arr (fun s -> s.recover_us)) )
     with
    | Some d, Some r ->
      Table.add_row baseline
        [ "timewheel"; Table.cell_ms d.Stats.mean; Table.cell_ms r.Stats.mean ]
    | _ -> ()));
  [ table; baseline; ring_distance_table ~quick ]
