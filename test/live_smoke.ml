(* Live-runtime smoke: the acceptance scenario of the UDP runtime, run
   for real on localhost sockets and the wall clock.

   Five members form a group over UDP; the current decider is killed
   (socket closed, state dropped) and the survivors must install a
   4-member view via the single-failure election; the killed member is
   then restarted and must rejoin — announcing its bumped formation
   epoch from stable storage — ending in a 5-member view with a
   strictly later group id. Every phase has a hard wall-clock bound so
   a hung run fails rather than wedging CI. Views and deliveries are
   watched through the nodes' [on_obs] callbacks. *)

open Tasim
open Broadcast
open Timewheel
open Runtime

let phase_timeout = Time.of_sec 30

let fail_with fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "live smoke: FAIL: %s@." msg;
      exit 1)
    fmt

let () =
  let n = 5 in
  let cfg = Live.config ~n ~base_port:47800 () in
  (* installed views, newest first, printed when a phase fails *)
  let views = ref [] in
  let deliveries = Hashtbl.create 4 in
  let on_obs proc at = function
    | Full_stack.Member_obs (Member.View_installed { group; group_id }) ->
      views :=
        Fmt.str "%a %a installed %a #%a" Time.pp at Proc_id.pp proc
          Proc_set.pp group Group_id.pp group_id
        :: !views
    | Full_stack.Member_obs (Member.Delivered { proposal; _ }) ->
      let payload = proposal.Proposal.payload in
      Hashtbl.replace deliveries payload
        (1 + Option.value ~default:0 (Hashtbl.find_opt deliveries payload))
    | _ -> ()
  in
  let delivered payload =
    Option.value ~default:0 (Hashtbl.find_opt deliveries payload)
  in
  let pp_views ppf () = Fmt.(list ~sep:comma string) ppf (List.rev !views) in
  let full = Proc_set.full ~n in
  let clock, cluster =
    try Live.in_process cfg ~on_obs ()
    with Unix.Unix_error (e, _, _) ->
      Fmt.epr "live smoke: SKIP: cannot open UDP sockets (%s)@."
        (Unix.error_message e);
      exit 0
  in
  Cluster.start cluster;
  let until pred = Cluster.run_until cluster
      ~deadline:(Time.add (Clock.now clock) phase_timeout) pred
  in

  (* a restarted member holds no view until it rejoins, so the group
     does not agree right after a restart, before any poll *)
  let restart p =
    Node.restart (Cluster.node cluster p);
    match Live.agreed_view cluster with
    | None -> ()
    | Some (group, gid) ->
      fail_with "agreed view %a #%a reported right after %a restarted"
        Proc_set.pp group Group_id.pp gid Proc_id.pp p
  in
  let agreed_on members () =
    match Live.agreed_view cluster with
    | Some (group, _) -> Proc_set.equal group members
    | None -> false
  in
  let rejoined ~than () =
    match Live.agreed_view cluster with
    | Some (group, gid) -> Proc_set.equal group full && Group_id.later gid ~than
    | None -> false
  in

  (* phase 1: the five members form the initial group over real UDP *)
  if not (until (agreed_on full)) then
    fail_with "initial 5-member group did not form within %a (views: %a)"
      Time.pp phase_timeout pp_views ();
  let _, gid5 = Option.get (Live.agreed_view cluster) in
  Fmt.pr "live smoke: formed %a #%a at %a@." Proc_set.pp full Group_id.pp gid5
    Time.pp (Clock.now clock);

  (* phase 2: kill the decider *)
  let victim =
    match Live.decider cluster with
    | Some p -> p
    | None -> fail_with "no member holds the decider role"
  in
  Node.kill (Cluster.node cluster victim);
  Fmt.pr "live smoke: killed decider %a at %a@." Proc_id.pp victim Time.pp
    (Clock.now clock);

  (* phase 3: the survivors elect and install the 4-member view *)
  let survivors = Proc_set.remove victim full in
  if not (until (agreed_on survivors)) then
    fail_with "survivors did not install %a within %a (views: %a)"
      Proc_set.pp survivors Time.pp phase_timeout pp_views ();
  let _, gid4 = Option.get (Live.agreed_view cluster) in
  if not (Group_id.later gid4 ~than:gid5) then
    fail_with "4-member view id %a not later than %a" Group_id.pp gid4
      Group_id.pp gid5;
  Fmt.pr "live smoke: survivors installed %a #%a at %a@." Proc_set.pp
    survivors Group_id.pp gid4 Time.pp (Clock.now clock);

  (* phase 4: restart the victim; stable storage makes it announce a
     bumped formation epoch and rejoin *)
  restart victim;
  if not (until (rejoined ~than:gid4)) then
    fail_with "killed member did not rejoin within %a (views: %a)" Time.pp
      phase_timeout pp_views ();
  let _, gid_final = Option.get (Live.agreed_view cluster) in
  let victim_node = Cluster.node cluster victim in
  (match Live.member_of victim_node with
  | None -> fail_with "restarted member has no member state"
  | Some m ->
    if Member.form_epoch m < 1 then
      fail_with
        "restarted member forgot its epoch (form_epoch %d, expected >= 1)"
        (Member.form_epoch m));
  if Node.incarnation victim_node <> 1 then
    fail_with "expected incarnation 1, got %d" (Node.incarnation victim_node);
  Fmt.pr
    "live smoke: %a rejoined (form epoch %d); full group %a #%a at %a@."
    Proc_id.pp victim
    (Option.fold ~none:(-1) ~some:Member.form_epoch
       (Live.member_of victim_node))
    Proc_set.pp full Group_id.pp gid_final Time.pp (Clock.now clock);

  (* a quick end-to-end broadcast sanity check on the rejoined group *)
  Live.submit (Cluster.node cluster (Proc_id.of_int 0))
    ~semantics:Semantics.total_strong "live-hello";
  if not (until (fun () -> delivered "live-hello" = n)) then
    fail_with "update not delivered by all %d members" n;
  Fmt.pr "live smoke: update delivered by all %d members@." n;

  (* phase 6: the live mirror of the asym-slow-link topology scenario —
     one directed link impaired (delay past delta with jitter and
     loss) via the transport shim; the group must stay formed and a
     broadcast must still reach everyone through the degraded link *)
  let a = Proc_id.of_int ((Proc_id.to_int victim + 1) mod n) in
  let b = Proc_id.of_int ((Proc_id.to_int victim + 2) mod n) in
  Transport.impair
    (Node.transport (Cluster.node cluster a))
    ~dst:b ~delay:(Time.of_ms 15) ~jitter:(Time.of_ms 5) ~drop:0.2
    ~now:(fun () -> Clock.now clock)
    ();
  Fmt.pr "live smoke: impaired link %a->%a (15ms+5ms jitter, 20%% loss)@."
    Proc_id.pp a Proc_id.pp b;
  Live.submit (Cluster.node cluster a) ~semantics:Semantics.total_strong
    "slow-link-hello";
  if not (until (fun () -> delivered "slow-link-hello" >= n)) then
    fail_with "update not delivered by all %d members over the impaired link"
      n;
  (* each member delivers it once: run on past the n-th delivery and
     check that no duplicate arrives *)
  Cluster.run_for cluster ~span:(Time.of_ms 200);
  if delivered "slow-link-hello" <> n then
    fail_with "update delivered %d times, expected exactly %d"
      (delivered "slow-link-hello") n;
  (match Live.agreed_view cluster with
  | Some (group, _) when Proc_set.equal group full -> ()
  | Some (group, _) ->
    fail_with "group shrank under the impaired link: %a" Proc_set.pp group
  | None -> fail_with "no agreed view under the impaired link");
  Transport.clear_impairments (Node.transport (Cluster.node cluster a));
  Fmt.pr "live smoke: impaired-link broadcast delivered, group intact@.";

  (* phase 7: kill and restart a member that is not the clock-sync
     reference (p0, the usual decider killed above). Right after its
     restart its clock is unsynchronized, so it has no member state at
     all while the four others agree on their view: agreement must
     count it as disagreement, not absence. *)
  let last = Proc_id.of_int (n - 1) in
  Node.kill (Cluster.node cluster last);
  let others = Proc_set.remove last full in
  if not (until (agreed_on others)) then
    fail_with "%a was not excluded within %a (views: %a)" Proc_id.pp last
      Time.pp phase_timeout pp_views ();
  let _, gid_others = Option.get (Live.agreed_view cluster) in
  restart last;
  if Option.is_some (Live.member_of (Cluster.node cluster last)) then
    fail_with "%a holds a member state before its clock resynchronized"
      Proc_id.pp last;
  if not (until (rejoined ~than:gid_others)) then
    fail_with "%a did not rejoin within %a (views: %a)" Proc_id.pp last
      Time.pp phase_timeout pp_views ();
  Fmt.pr "live smoke: %a excluded, restarted and rejoined at %a@." Proc_id.pp
    last Time.pp (Clock.now clock);

  let total name =
    List.fold_left
      (fun acc node -> acc + Stats.count (Node.stats node) name)
      0 (Cluster.nodes cluster)
  in
  Fmt.pr
    "live smoke: PASS (%d datagrams sent, %d received, %d decode drops)@."
    (total "live:sent") (total "live:recv")
    (total "live:drop:truncated" + total "live:drop:bad-magic"
   + total "live:drop:bad-version"
    + total "live:drop:length-mismatch"
    + total "live:drop:malformed")
