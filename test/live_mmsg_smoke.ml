(* Batched-data-plane smoke: the live runtime with sendmmsg/recvmmsg
   explicitly engaged.

   Five members form a group over UDP with syscall batching forced on;
   the current decider is killed, the survivors re-form, and a
   broadcast is delivered by the full rejoined group — the same
   acceptance shape as live_smoke, but asserting along the way that
   the batched path is actually in use (every transport reports
   [batched], and the mmsg syscall counters are the ones moving).
   Skips (exit 0) where UDP sockets or the mmsg syscalls are
   unavailable, so non-Linux CI stays green. *)

open Tasim
open Broadcast
open Runtime

let phase_timeout = Time.of_sec 30

let fail_with fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "live mmsg smoke: FAIL: %s@." msg;
      exit 1)
    fmt

let () =
  if not Mmsg.supported then begin
    Fmt.epr "live mmsg smoke: SKIP: sendmmsg/recvmmsg unsupported here@.";
    exit 0
  end;
  let n = 5 in
  let cfg = Live.config ~n ~base_port:47900 ~batching:true () in
  let hellos = ref 0 in
  let on_obs _proc _at = function
    | Timewheel.Full_stack.Member_obs
        (Timewheel.Member.Delivered { proposal; _ })
      when proposal.Proposal.payload = "mmsg-hello" ->
      incr hellos
    | _ -> ()
  in
  let clock, cluster =
    try Live.in_process cfg ~on_obs ()
    with Unix.Unix_error (e, _, _) ->
      Fmt.epr "live mmsg smoke: SKIP: cannot open UDP sockets (%s)@."
        (Unix.error_message e);
      exit 0
  in
  List.iter
    (fun node ->
      if not (Transport.batched (Node.transport node)) then
        fail_with "%a is not on the batched path" Proc_id.pp (Node.self node))
    (Cluster.nodes cluster);
  Cluster.start cluster;
  let until pred =
    Cluster.run_until cluster
      ~deadline:(Time.add (Clock.now clock) phase_timeout)
      pred
  in

  (* form *)
  let full = Proc_set.full ~n in
  let agreed group () =
    match Live.agreed_view cluster with
    | Some (g, _) -> Proc_set.equal g group
    | None -> false
  in
  if not (until (agreed full)) then
    fail_with "initial 5-member group did not form within %a" Time.pp
      phase_timeout;
  let _, gid5 = Option.get (Live.agreed_view cluster) in
  Fmt.pr "live mmsg smoke: formed %a #%a@." Proc_set.pp full Group_id.pp gid5;

  (* kill the decider, survivors re-form *)
  let victim =
    match Live.decider cluster with
    | Some p -> p
    | None -> fail_with "no member holds the decider role"
  in
  Node.kill (Cluster.node cluster victim);
  let survivors = Proc_set.remove victim full in
  if not (until (agreed survivors)) then
    fail_with "survivors did not install %a within %a" Proc_set.pp survivors
      Time.pp phase_timeout;
  let _, gid4 = Option.get (Live.agreed_view cluster) in
  if not (Group_id.later gid4 ~than:gid5) then
    fail_with "4-member view id %a not later than %a" Group_id.pp gid4
      Group_id.pp gid5;
  Fmt.pr "live mmsg smoke: survivors installed %a #%a@." Proc_set.pp survivors
    Group_id.pp gid4;

  (* restart, rejoin, deliver end to end *)
  Node.restart (Cluster.node cluster victim);
  let rejoined () =
    match Live.agreed_view cluster with
    | Some (g, gid) -> Proc_set.equal g full && Group_id.later gid ~than:gid4
    | None -> false
  in
  if not (until rejoined) then
    fail_with "killed member did not rejoin within %a" Time.pp phase_timeout;
  Live.submit
    (Cluster.node cluster (Proc_id.of_int 0))
    ~semantics:Semantics.total_strong "mmsg-hello";
  if not (until (fun () -> !hellos = n)) then
    fail_with "update not delivered by all %d members" n;

  (* the frames must actually have moved through the batched syscalls *)
  let total name =
    List.fold_left
      (fun acc node -> acc + Stats.count (Node.stats node) name)
      0 (Cluster.nodes cluster)
  in
  let sendmmsg = total "live:syscall:sendmmsg" in
  let recvmmsg = total "live:syscall:recvmmsg" in
  let sendto = total "live:syscall:sendto" in
  let recvfrom = total "live:syscall:recvfrom" in
  if sendmmsg = 0 then fail_with "no sendmmsg calls recorded";
  if recvmmsg = 0 then fail_with "no recvmmsg calls recorded";
  (* the impairment shim is unused here and nothing downgraded, so the
     per-datagram primitives must have stayed cold *)
  if sendto > 0 || recvfrom > 0 then
    fail_with "per-datagram syscalls used on the batched path (%d sendto, %d \
               recvfrom)"
      sendto recvfrom;
  List.iter
    (fun node ->
      if not (Transport.batched (Node.transport node)) then
        fail_with "%a downgraded off the batched path mid-run" Proc_id.pp
          (Node.self node))
    (Cluster.nodes cluster);
  Fmt.pr
    "live mmsg smoke: PASS (%d sent, %d received; %d sendmmsg, %d recvmmsg, \
     0 per-datagram syscalls)@."
    (total "live:sent") (total "live:recv") sendmmsg recvmmsg
