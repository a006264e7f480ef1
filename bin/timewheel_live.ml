(* timewheel-live: the timewheel stack on real UDP sockets and the
   wall clock.

   Subcommands:
     demo    run an N-member group in one process (N sockets on
             localhost), optionally kill and restart a member, print
             installed views and stats
     member  run a single member (one-process-per-member deployment:
             start N of these, one per id, sharing a base port)
     chaos   run the seeded live chaos scenarios (kill/restart churn,
             storage faults, link impairment, paused members) and
             check the protocol's safety invariants

   demo and member accept --supervise: the run is wrapped in
   Runtime.Supervisor (jittered exponential backoff, max-restart cap),
   so a crashed body restarts and — with a --state-dir — rejoins
   epoch-aware from stable storage. *)

open Cmdliner
open Tasim
open Broadcast
open Timewheel
open Runtime

let print_view proc at ~group ~group_id =
  Fmt.pr "[%a] %a installed view #%a %a@." Time.pp at Proc_id.pp proc
    Group_id.pp group_id Proc_set.pp group

let print_stats nodes =
  List.iter
    (fun node ->
      let counters =
        List.filter
          (fun (name, _) -> String.length name >= 5 && String.sub name 0 5 = "live:")
          (Stats.counters (Node.stats node))
      in
      Fmt.pr "%a:%a@." Proc_id.pp (Node.self node)
        Fmt.(list ~sep:nop (fun ppf (k, v) -> Fmt.pf ppf " %s=%d" k v))
        counters)
    nodes

(* ---------------------------------------------------------------- *)
(* supervision: demo/member bodies under Runtime.Supervisor *)

let supervised ~supervise ~max_restarts body =
  if not supervise then body ~restarts:0
  else
    let policy = { Supervisor.default_policy with max_restarts } in
    match
      Supervisor.run ~policy
        ~on_restart:(fun ~restarts ~backoff ~reason ->
          Fmt.epr "timewheel-live: body died (%s); restart %d in %a@." reason
            restarts Time.pp backoff)
        body
    with
    | Supervisor.Done restarts ->
      if restarts > 0 then
        Fmt.epr "timewheel-live: clean exit after %d restart(s)@." restarts;
      0
    | Supervisor.Gave_up { restarts; last } ->
      Fmt.epr "timewheel-live: giving up after %d restart(s): %s@." restarts
        last;
      125

(* ---------------------------------------------------------------- *)
(* demo: in-process multi-instance *)

let demo_once n base_port no_batch kill_spec kill_after restart_after duration
    submit verbose =
  let cfg =
    Live.config ~n ~base_port
      ?batching:(if no_batch then Some false else None)
      ()
  in
  let delivered = ref 0 in
  let on_obs proc at = function
    | Full_stack.Member_obs (Member.View_installed { group; group_id }) ->
      print_view proc at ~group ~group_id
    | Full_stack.Member_obs (Member.Delivered _) -> incr delivered
    | _ -> ()
  in
  let on_log =
    if verbose then Some (fun p line -> Fmt.epr "%a| %s@." Proc_id.pp p line)
    else None
  in
  let clock, cluster = Live.in_process cfg ~on_obs ?on_log () in
  (* release the ports whatever happens — a supervised restart rebinds *)
  Fun.protect ~finally:(fun () -> List.iter Node.kill (Cluster.nodes cluster))
  @@ fun () ->
  Cluster.start cluster;
  Fmt.pr "started %d members on 127.0.0.1:%d-%d@." n base_port
    (base_port + n - 1);

  Cluster.run_for cluster ~span:kill_after;
  let victim =
    match kill_spec with
    | None -> None
    | Some "decider" -> Live.decider cluster
    | Some id -> (
      match int_of_string_opt id with
      | Some i when i >= 0 && i < n -> Some (Proc_id.of_int i)
      | _ ->
        Fmt.epr "timewheel-live: --kill expects a member id or 'decider'@.";
        exit 124)
  in
  (match victim with
  | None -> ()
  | Some p ->
    Node.kill (Cluster.node cluster p);
    Fmt.pr "killed %a at %a@." Proc_id.pp p Time.pp (Clock.now clock);
    Cluster.run_for cluster ~span:restart_after;
    Node.restart (Cluster.node cluster p);
    Fmt.pr "restarted %a at %a@." Proc_id.pp p Time.pp (Clock.now clock));

  (* let the membership settle before broadcasting: an update submitted
     mid-rejoin is legitimately not delivered by the joiner (members
     only deliver updates ordered in views they install) *)
  let settled () =
    match Live.agreed_view cluster with
    | Some (group, _) -> Proc_set.equal group (Proc_set.full ~n)
    | None -> false
  in
  ignore
    (Cluster.run_until cluster
       ~deadline:(Time.add (Clock.now clock) duration)
       ~poll_cap:(Time.of_ms 50) settled);
  for i = 1 to submit do
    Live.submit
      (Cluster.node cluster (Proc_id.of_int ((i - 1) mod n)))
      ~semantics:Semantics.total_strong
      (Fmt.str "update-%d" i)
  done;
  let deadline = Time.add (Clock.now clock) duration in
  ignore
    (Cluster.run_until cluster ~deadline ~poll_cap:(Time.of_ms 50) (fun () ->
         submit > 0 && !delivered >= submit * n));

  let ok =
    match Live.agreed_view cluster with
    | Some (group, group_id) ->
      Fmt.pr "final view: #%a %a@." Group_id.pp group_id Proc_set.pp group;
      Proc_set.equal group (Proc_set.full ~n)
    | None ->
      Fmt.pr "final view: members disagree or none installed@.";
      false
  in
  if submit > 0 then
    Fmt.pr "deliveries: %d (of %d expected)@." !delivered (submit * n);
  print_stats (Cluster.nodes cluster);
  if ok && (submit = 0 || !delivered = submit * n) then 0 else 1

let demo n base_port no_batch kill_spec kill_after restart_after duration
    submit verbose supervise max_restarts =
  supervised ~supervise ~max_restarts (fun ~restarts:_ ->
      demo_once n base_port no_batch kill_spec kill_after restart_after
        duration submit verbose)

(* ---------------------------------------------------------------- *)
(* member: one process per member *)

let member_once me n base_port no_batch state_dir duration verbose =
  if me < 0 || me >= n then begin
    Fmt.epr "timewheel-live: --me must be in [0, %d)@." n;
    exit 124
  end;
  let store =
    match state_dir with
    | Some dir -> Live_store.on_disk ~dir ()
    | None -> Live_store.in_memory ()
  in
  let cfg =
    Live.config ~n ~base_port ~store
      ?batching:(if no_batch then Some false else None)
      ()
  in
  let clock = Clock.create () in
  let self = Proc_id.of_int me in
  let on_obs at = function
    | Full_stack.Member_obs (Member.View_installed { group; group_id }) ->
      print_view self at ~group ~group_id
    | _ -> ()
  in
  let on_log =
    if verbose then Some (fun line -> Fmt.epr "%a| %s@." Proc_id.pp self line)
    else None
  in
  let node = Live.mk_node cfg ~clock ~self ~on_obs ?on_log () in
  let cluster = Cluster.create ~clock ~nodes:[ node ] in
  Fun.protect ~finally:(fun () -> Node.kill node) @@ fun () ->
  Cluster.start cluster;
  Fmt.pr "member %a up on 127.0.0.1:%d (group ports %d-%d)@." Proc_id.pp self
    (base_port + me) base_port
    (base_port + n - 1);
  Cluster.run_for cluster ~span:duration;
  (match Live.member_of node with
  | Some m ->
    Fmt.pr "final: view #%a %a (form epoch %d)@." Group_id.pp
      (Member.group_id m) Proc_set.pp (Member.group m) (Member.form_epoch m)
  | None -> Fmt.pr "final: clock never synchronized@.");
  print_stats [ node ];
  match Live.member_of node with
  | Some m when Member.has_group m -> 0
  | _ -> 1

let member me n base_port no_batch state_dir duration verbose supervise
    max_restarts =
  supervised ~supervise ~max_restarts (fun ~restarts:_ ->
      member_once me n base_port no_batch state_dir duration verbose)

(* ---------------------------------------------------------------- *)
(* chaos: the seeded live chaos scenarios *)

let chaos scenario_names seed runs base_port list_only =
  if list_only then begin
    List.iter
      (fun (s : Chaos.Live.scenario) ->
        Fmt.pr "%-18s n=%d  %s@." s.Chaos.Live.name s.Chaos.Live.n
          s.Chaos.Live.describe)
      Chaos.Live.scenarios;
    0
  end
  else begin
    let chosen =
      match scenario_names with
      | [] -> Chaos.Live.scenarios
      | names ->
        List.map
          (fun nm ->
            match Chaos.Live.find nm with
            | Some s -> s
            | None ->
              Fmt.epr "timewheel-live: unknown scenario %s (try --list)@." nm;
              exit 124)
          names
    in
    let all_ok = ref true in
    List.iteri
      (fun i s ->
        let report =
          Chaos.Live.sweep ~runs ~base_port:(base_port + (i * 256)) ~seed s
        in
        Fmt.pr "%a@." Chaos.Live.pp_report report;
        if not (Chaos.Live.report_ok report) then all_ok := false)
      chosen;
    if !all_ok then 0 else 1
  end

(* ---------------------------------------------------------------- *)
(* cmdliner plumbing *)

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Group size.")

let base_port_arg =
  Arg.(
    value & opt int 47700
    & info [ "base-port" ] ~docv:"PORT"
        ~doc:"Member $(i,i) binds UDP port PORT+$(i,i) on 127.0.0.1.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print automaton log lines.")

let no_batch_arg =
  Arg.(
    value & flag
    & info [ "no-batch" ]
        ~doc:
          "Force the portable per-datagram sendto/recvfrom path instead of \
           the batched sendmmsg/recvmmsg syscalls (same effect as \
           $(b,TW_MMSG=0); frame bytes and counters are identical either \
           way).")

let supervise_arg =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "Restart the run when it dies (an exception or a nonzero result), \
           with jittered exponential backoff; with $(b,--state-dir) each \
           restart rejoins epoch-aware from stable storage.")

let max_restarts_arg =
  Arg.(
    value
    & opt int Supervisor.default_policy.Supervisor.max_restarts
    & info [ "max-restarts" ] ~docv:"K"
        ~doc:"Give up after K supervised restarts.")

let seconds ~default names doc =
  Arg.(
    value
    & opt float default
    & info names ~docv:"SECONDS" ~doc)
  |> Term.map (fun s -> Time.of_us (int_of_float (s *. 1e6)))

let demo_cmd =
  let kill_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kill" ] ~docv:"WHO"
          ~doc:
            "Kill a member once the group settles: a member id, or \
             $(b,decider) for whoever holds the decider role.")
  in
  let submit_arg =
    Arg.(
      value & opt int 3
      & info [ "submit" ] ~docv:"K"
          ~doc:"Broadcast K updates after the fault schedule.")
  in
  let term =
    Term.(
      const demo $ n_arg $ base_port_arg $ no_batch_arg $ kill_arg
      $ seconds ~default:2.0 [ "kill-after" ]
          "Settle time before the kill (and before updates when no kill)."
      $ seconds ~default:2.0 [ "restart-after" ]
          "Downtime before the killed member restarts."
      $ seconds ~default:3.0 [ "duration" ]
          "Running time after the fault schedule completes."
      $ submit_arg $ verbose_arg $ supervise_arg $ max_restarts_arg)
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:
         "Run an N-member group in one process, each member a real UDP \
          endpoint; optionally kill and restart one.")
    term

let member_cmd =
  let me_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "me" ] ~docv:"ID" ~doc:"This member's id, in [0, N).")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Stable-storage directory (shared by restarts of this member). \
             Without it a restart is amnesiac.")
  in
  let term =
    Term.(
      const member $ me_arg $ n_arg $ base_port_arg $ no_batch_arg
      $ state_dir_arg
      $ seconds ~default:10.0 [ "duration" ] "How long to run."
      $ verbose_arg $ supervise_arg $ max_restarts_arg)
  in
  Cmd.v
    (Cmd.info "member"
       ~doc:
         "Run one member; start N of these (ids 0..N-1, same base port) to \
          form a group across processes.")
    term

let chaos_cmd =
  let scenario_arg =
    Arg.(
      value & opt_all string []
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario to run (repeatable; default: all). See $(b,--list).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Root seed; per-run seeds derive from it.")
  in
  let runs_arg =
    Arg.(
      value & opt int 3
      & info [ "runs" ] ~docv:"RUNS" ~doc:"Seeds per scenario.")
  in
  let chaos_port_arg =
    Arg.(
      value
      & opt int Chaos.Live.default_base_port
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:
            "First UDP port; each scenario and each run strides upward from \
             it.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the scenario catalogue and exit.")
  in
  let term =
    Term.(
      const chaos $ scenario_arg $ seed_arg $ runs_arg $ chaos_port_arg
      $ list_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Crash the real thing: seeded kill/restart churn, storage faults, \
          link impairment and paused members against real-socket nodes, \
          checking the same invariants as the simulator's chaos runner.")
    term

let () =
  let doc = "the timewheel group membership stack on live UDP" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "timewheel-live" ~doc ~version:"%%VERSION%%")
          [ demo_cmd; member_cmd; chaos_cmd ]))
