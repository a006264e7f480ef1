open Tasim
open Timewheel

type outcome = {
  formed_at : Time.t option;
  excluded_at : Time.t option;  (** all survivors installed a view w/o victim *)
  rejoined_at : Time.t option;  (** full group again *)
  cs_msgs : int;
  gc_msgs : int;
}

let one_run ~n ~seed ~omission ~crash =
  let params = Params.make ~pacing:Paced ~n () in
  let cs_cfg = Clocksync.Protocol.default_config ~n in
  let cs_cfg = { cs_cfg with Clocksync.Protocol.delta = params.Params.delta } in
  let member_cfg = Member.config ~initial_app:() params in
  let net =
    {
      Net.default_config with
      Net.delta = params.Params.delta;
      omission_prob = omission;
    }
  in
  let engine = Engine.create { Engine.default_config with Engine.net; seed } ~n in
  Engine.classify engine Full_stack.kind_of_msg;
  let rng = Rng.create (seed + 17) in
  let clocks =
    Array.init n (fun _ ->
        Hardware_clock.random rng ~max_offset:(Time.of_ms 100) ~max_drift:1e-5)
  in
  let views : (Time.t * Proc_id.t * Broadcast.Group_id.t * Proc_set.t) list ref =
    ref []
  in
  Engine.on_observe engine (fun at proc obs ->
      match obs with
      | Full_stack.Member_obs (Member.View_installed { group; group_id }) ->
        views := (at, proc, group_id, group) :: !views
      | _ -> ());
  let automaton = Full_stack.automaton member_cfg cs_cfg in
  List.iter
    (fun id ->
      Engine.add_process engine id automaton
        ~clock:(Engine.clock_source_of_hardware clocks.(Proc_id.to_int id))
        ())
    (Proc_id.all ~n);
  let victim = Proc_id.of_int 2 in
  let crash_at = Time.of_sec 3 in
  let recover_at = Time.of_sec 6 in
  if crash then begin
    Engine.crash_at engine crash_at victim;
    Engine.recover_at engine recover_at victim
  end;
  Engine.run engine ~until:(Time.of_sec 12);
  (* analysis over view installations *)
  let all = List.rev !views in
  let time_all_hold pred ~among ~after =
    (* earliest time every process in [among] has most recently
       installed a view satisfying [pred], looking at installs >= after *)
    let ok p =
      List.find_map
        (fun (at, proc, gid, g) ->
          if Proc_id.equal proc p && Time.compare at after >= 0 && pred gid g
          then Some at
          else None)
        all
    in
    let times = List.map ok among in
    if List.for_all Option.is_some times then
      Some
        (List.fold_left (fun acc t -> Time.max acc (Option.get t)) Time.zero
           times)
    else None
  in
  let everyone = Proc_id.all ~n in
  let survivors = List.filter (fun p -> not (Proc_id.equal p victim)) everyone in
  let formed_at =
    time_all_hold
      (fun _ g -> Proc_set.cardinal g = n)
      ~among:everyone ~after:Time.zero
  in
  let excluded_at =
    if crash then
      time_all_hold
        (fun _ g -> not (Proc_set.mem victim g))
        ~among:survivors ~after:crash_at
    else None
  in
  let rejoined_at =
    if crash then
      time_all_hold
        (fun _ g -> Proc_set.cardinal g = n)
        ~among:everyone ~after:recover_at
    else None
  in
  let stats = Engine.stats engine in
  let count prefix =
    Run.sent_matching (Stats.counters stats) ~prefixes:prefix
  in
  {
    formed_at;
    excluded_at;
    rejoined_at;
    cs_msgs = count [ "cs-" ];
    gc_msgs = count [ "decision"; "join"; "no-decision"; "reconfiguration";
                      "state-transfer" ];
  }

let cell_time = function
  | Some t -> Fmt.str "%a" Time.pp t
  | None -> "-"

let run ?(quick = false) () =
  let n = 5 in
  let table =
    Table.create
      ~title:
        "E9: full Fig.1 stack (membership over real fail-aware clock sync, \
         N=5; crash p2 at 3s, recover at 6s)"
      ~columns:
        [
          "omission prob";
          "group formed";
          "victim excluded";
          "victim rejoined";
          "cs msgs";
          "gc msgs";
        ]
  in
  let omissions = if quick then [ 0.0 ] else [ 0.0; 0.05; 0.1 ] in
  List.iter
    (fun omission ->
      let r = one_run ~n ~seed:71 ~omission ~crash:true in
      Table.add_row table
        [
          Table.cell_f omission;
          cell_time r.formed_at;
          cell_time r.excluded_at;
          cell_time r.rejoined_at;
          string_of_int r.cs_msgs;
          string_of_int r.gc_msgs;
        ])
    omissions;
  Table.note table
    "clock-sync traffic (cs msgs) is the substrate's own layer (Fig. 1); \
     the membership protocol itself still adds no failure-free messages";
  [ table ]
