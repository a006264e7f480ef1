open Tasim
open Broadcast
open Timewheel
module Node = Runtime.Node
module Cluster = Runtime.Cluster
module Clock = Runtime.Clock
module Transport = Runtime.Transport
module Live_store = Runtime.Live_store
module Store = Storage.Store
module L = Runtime.Live

type outcome = {
  scenario : string;
  seed : int;
  violations : Runner.violation list;
  formed_in : Time.t;
  exclusions : Time.t list;
  rejoins : Time.t list;
  views : int;
  persist_failures : int;
  corrupt_restores : int;
}

let ok o = o.violations = []

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf
    "%s seed=%d %s formed=%a views=%d exclusions=%d rejoins=%d \
     persist-failed=%d corrupt-restores=%d"
    o.scenario o.seed
    (if ok o then "ok" else "FAIL")
    Time.pp o.formed_in o.views
    (List.length o.exclusions)
    (List.length o.rejoins)
    o.persist_failures o.corrupt_restores;
  List.iter (fun v -> Fmt.pf ppf "@,  %a" Runner.pp_violation v) o.violations

type scenario = {
  name : string;
  n : int;
  describe : string;
  run : seed:int -> base_port:int -> outcome;
}

(* ---------------------------------------------------------------- *)
(* driver context *)

type view = {
  at : Time.t;
  proc : Proc_id.t;
  group : Proc_set.t;
  group_id : Group_id.t;
}

type ctx = {
  n : int;
  clock : Clock.t;
  cluster : L.cluster;
  views : view list ref;  (* every installation of the run, newest first *)
  deliverers : (string, Proc_id.t list) Hashtbl.t;  (* payload -> who *)
  rng : Rng.t;
  store : Live_store.t;
  mutable perturbed : Proc_set.t;  (* ever killed or paused *)
  mutable paused : Proc_set.t;
  mutable formed_at : Time.t;
  mutable violations : Runner.violation list;  (* newest first *)
  mutable exclusions : Time.t list;  (* newest first *)
  mutable rejoins : Time.t list;  (* newest first *)
  mutable bcasts : int;
}

let violate ctx property detail =
  ctx.violations <-
    { Runner.at = Clock.now ctx.clock; property; detail } :: ctx.violations

(* Member states of the up, unpaused nodes — the snapshot the
   invariants and agreement checks run over. A paused node's state is
   deliberately frozen mid-past; holding it against the group would
   flag the pause itself, not a protocol bug. *)
let up_states ctx =
  List.filter_map
    (fun nd ->
      if Node.is_up nd && not (Node.is_paused nd) then
        Option.map (fun m -> (Node.self nd, m)) (L.member_of nd)
      else None)
    (Cluster.nodes ctx.cluster)

let wait ?(timeout = Time.of_sec 30) ctx ~property pred =
  let deadline = Time.add (Clock.now ctx.clock) timeout in
  let met =
    Cluster.run_until ctx.cluster ~deadline ~poll_cap:(Time.of_ms 20) pred
  in
  if not met then
    violate ctx property (Fmt.str "not reached within %a" Time.pp timeout);
  met

let settle ?timeout ctx ~property expected =
  wait ?timeout ctx ~property (fun () ->
      match L.agreed_view ctx.cluster with
      | Some (g, _) -> Proc_set.equal g expected
      | None -> false)

let run_for ctx span = Cluster.run_for ctx.cluster ~span

let sample_invariants ctx ~phase =
  List.iter
    (fun (v : Invariant.violation) ->
      violate ctx
        ("invariant:" ^ v.Invariant.property)
        (Fmt.str "%s (%s)" v.Invariant.detail phase))
    (Invariant.check_all ~n:ctx.n (up_states ctx))

let deliverers ctx payload =
  Option.value ~default:[] (Hashtbl.find_opt ctx.deliverers payload)

let delivered_count ctx payload = List.length (deliverers ctx payload)

(* End-to-end delivery check with client-style retries: a submission is
   one UDP proposal broadcast with no request-level retransmission, so
   right after churn it can be legitimately lost (dropped datagram,
   fail-aware late rejection while the submitter is not sigma-stable
   at its receivers yet). A real client resubmits; so does the
   harness — each attempt a fresh payload at a rotating member. Only
   all attempts failing is a liveness violation. *)
let broadcast_expect ctx label =
  let attempts = 3 in
  let rec go attempt =
    let up =
      List.filter
        (fun nd -> Node.is_up nd && not (Node.is_paused nd))
        (Cluster.nodes ctx.cluster)
    in
    match up with
    | [] -> violate ctx ("delivery:" ^ label) "no up member to submit at"
    | _ :: _ ->
      let expected = List.length up in
      let node = List.nth up ((attempt - 1) mod expected) in
      let payload = Fmt.str "%s-%d" label ctx.bcasts in
      ctx.bcasts <- ctx.bcasts + 1;
      L.submit node ~semantics:Semantics.total_strong payload;
      let deadline = Time.add (Clock.now ctx.clock) (Time.of_sec 5) in
      let met =
        Cluster.run_until ctx.cluster ~deadline ~poll_cap:(Time.of_ms 20)
          (fun () -> delivered_count ctx payload >= expected)
      in
      if not met then
        if attempt < attempts then go (attempt + 1)
        else
          violate ctx
            ("delivery:" ^ label)
            (Fmt.str
               "no attempt of %d delivered group-wide (last: %d of %d, by %a)"
               attempts
               (delivered_count ctx payload)
               expected
               Fmt.(list ~sep:comma Proc_id.pp)
               (deliverers ctx payload))
  in
  go 1

(* One kill/restart cycle with its recovery-time samples. The rejoined
   view must carry a strictly later group id than the one agreed at the
   kill — the live face of the epoch ratchet. [crash] adds
   machine-crash semantics ({!Store.note_crash});
   [before_restart] runs while the victim is down (the storage
   scenario corrupts the on-disk record there). *)
let kill_restart ?(downtime = Time.of_ms 100) ?(crash = false) ?before_restart
    ctx victim =
  let node = Cluster.node ctx.cluster victim in
  let full = Proc_set.full ~n:ctx.n in
  let gid0 = Option.map snd (L.agreed_view ctx.cluster) in
  ctx.perturbed <- Proc_set.add victim ctx.perturbed;
  let t_kill = Clock.now ctx.clock in
  Node.kill node;
  if crash then Store.note_crash ctx.store ~self:victim;
  if settle ctx ~property:"exclusion" (Proc_set.remove victim full) then
    ctx.exclusions <- Time.sub (Clock.now ctx.clock) t_kill :: ctx.exclusions;
  sample_invariants ctx ~phase:"post-exclusion";
  run_for ctx downtime;
  (match before_restart with Some f -> f () | None -> ());
  let t_restart = Clock.now ctx.clock in
  Node.restart node;
  (if settle ctx ~property:"rejoin" full then begin
     ctx.rejoins <- Time.sub (Clock.now ctx.clock) t_restart :: ctx.rejoins;
     match (gid0, L.agreed_view ctx.cluster) with
     | Some g0, Some (_, g1) when not (Group_id.later g1 ~than:g0) ->
       violate ctx "group-id-advance"
         (Fmt.str "rejoined at #%a, not later than #%a held at the kill"
            Group_id.pp g1 Group_id.pp g0)
     | _ -> ()
   end);
  sample_invariants ctx ~phase:"post-rejoin"

(* end-of-run whole-history checks *)

let check_ratchet ctx =
  let last : (int, Group_id.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let p = Proc_id.to_int v.proc in
      (match Hashtbl.find_opt last p with
      | Some prev when not (Group_id.later v.group_id ~than:prev) ->
        ctx.violations <-
          {
            Runner.at = v.at;
            property = "epoch-ratchet";
            detail =
              Fmt.str "%a installed #%a after #%a" Proc_id.pp v.proc
                Group_id.pp v.group_id Group_id.pp prev;
          }
          :: ctx.violations
      | _ -> ());
      Hashtbl.replace last p v.group_id)
    (List.rev !(ctx.views))

(* A false suspicion is a view-change exclusion (seq > 0 within an
   epoch) of a member that was never killed or paused. Formation views
   (seq 0) are exempt: a (re-)formation legitimately completes with a
   straggler absent and absorbs it at the next seq — the phase settles
   and the final convergence check already require the stragglers
   back. One violation per distinct view, not per installing member. *)
let check_false_suspicions ctx =
  let healthy = Proc_set.diff (Proc_set.full ~n:ctx.n) ctx.perturbed in
  let seen : (Group_id.t, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun v ->
      if
        Time.compare v.at ctx.formed_at > 0
        && Group_id.seq v.group_id > 0
        && not (Hashtbl.mem seen v.group_id)
      then begin
        Hashtbl.add seen v.group_id ();
        let missing = Proc_set.diff healthy v.group in
        if not (Proc_set.is_empty missing) then
          ctx.violations <-
            {
              Runner.at = v.at;
              property = "false-suspicion";
              detail =
                Fmt.str "view #%a %a excludes never-perturbed %a" Group_id.pp
                  v.group_id Proc_set.pp v.group Proc_set.pp missing;
            }
            :: ctx.violations
      end)
    !(ctx.views)

(* Undo every perturbation so the final convergence check starts from
   a healable cluster whatever the scenario body left behind. *)
let heal ctx =
  Store.set_fault ctx.store None;
  List.iter
    (fun nd ->
      if Node.is_up nd then begin
        Node.resume nd;
        Transport.clear_impairments (Node.transport nd)
      end
      else Node.restart nd)
    (Cluster.nodes ctx.cluster);
  ctx.paused <- Proc_set.empty

let run_ctx ~name ~n ~seed ~base_port ?params ?store body =
  let store =
    match store with Some s -> s | None -> Store.in_memory ()
  in
  let cfg = L.config ~n ~base_port ?params ~store () in
  let views = ref [] and deliverers = Hashtbl.create 16 in
  let on_obs proc at = function
    | Full_stack.Member_obs (Member.View_installed { group; group_id }) ->
      views := { at; proc; group; group_id } :: !views
    | Full_stack.Member_obs (Member.Delivered { proposal; _ }) ->
      let payload = proposal.Proposal.payload in
      Hashtbl.replace deliverers payload
        (proc
        :: Option.value ~default:[] (Hashtbl.find_opt deliverers payload))
    | Full_stack.Member_started | Full_stack.Member_obs _
    | Full_stack.Sync_obs _ ->
      ()
  in
  let clock, cluster = L.in_process cfg ~on_obs () in
  let ctx =
    {
      n;
      clock;
      cluster;
      views;
      deliverers;
      rng = Rng.create seed;
      store;
      perturbed = Proc_set.empty;
      paused = Proc_set.empty;
      formed_at = Time.infinity;
      violations = [];
      exclusions = [];
      rejoins = [];
      bcasts = 0;
    }
  in
  Fun.protect ~finally:(fun () ->
      List.iter Node.kill (Cluster.nodes cluster))
  @@ fun () ->
  Cluster.start cluster;
  let t0 = Clock.now clock in
  let formed = settle ctx ~property:"formation" (Proc_set.full ~n) in
  let formed_in = Time.sub (Clock.now clock) t0 in
  ctx.formed_at <- Clock.now clock;
  (if formed then
     try body ctx
     with e -> violate ctx "exception" (Printexc.to_string e));
  heal ctx;
  if formed then begin
    ignore (settle ctx ~property:"final-convergence" (Proc_set.full ~n));
    sample_invariants ctx ~phase:"final";
    broadcast_expect ctx "final"
  end;
  check_ratchet ctx;
  check_false_suspicions ctx;
  let stats = Store.stats store in
  {
    scenario = name;
    seed;
    violations = List.rev ctx.violations;
    formed_in;
    exclusions = List.rev ctx.exclusions;
    rejoins = List.rev ctx.rejoins;
    views = List.length !views;
    persist_failures = Stats.count stats "live:store:persist-failed";
    corrupt_restores = Stats.count stats "live:store:restore-corrupt";
  }

(* ---------------------------------------------------------------- *)
(* scenarios *)

let pick_proc ctx = Proc_id.of_int (Rng.int ctx.rng ctx.n)

let pick_other ctx avoid =
  let rec go () =
    let p = pick_proc ctx in
    if Proc_id.equal p avoid then go () else p
  in
  go ()

let kill_restart_churn =
  let n = 5 in
  {
    name = "kill-restart-churn";
    n;
    describe =
      "three kill/restart cycles, decider-biased victims, a group-wide \
       broadcast after each rejoin";
    run =
      (fun ~seed ~base_port ->
        run_ctx ~name:"kill-restart-churn" ~n ~seed ~base_port (fun ctx ->
            for cycle = 1 to 3 do
              let victim =
                if Rng.bool ctx.rng 0.5 then
                  match L.decider ctx.cluster with
                  | Some p -> p
                  | None -> pick_proc ctx
                else pick_proc ctx
              in
              kill_restart ctx victim ~downtime:(Time.of_ms (100 * cycle));
              broadcast_expect ctx (Fmt.str "churn%d" cycle)
            done));
  }

let rec rm_rf path =
  let kind =
    try Some (Unix.lstat path).Unix.st_kind with Unix.Unix_error _ -> None
  in
  match kind with
  | Some Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | Some _ -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ()

let flip_byte path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  if len > 0 then begin
    let i = len / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  end

let storage_chaos =
  let n = 5 in
  {
    name = "storage-chaos";
    n;
    describe =
      "on-disk store under transient EIO, torn writes, a lost-flush \
       machine crash, and a direct on-disk bit flip the checksum must \
       reject";
    run =
      (fun ~seed ~base_port ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Fmt.str "tw-live-chaos-%d-%d-%d" (Unix.getpid ()) base_port seed)
        in
        rm_rf dir;
        let store = Live_store.on_disk ~dir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        run_ctx ~name:"storage-chaos" ~n ~seed ~base_port ~store (fun ctx ->
            let stats = Store.stats ctx.store in
            (* transient EIO: rejoin installs degrade (counted), the
               node keeps running on its in-memory state *)
            let v1 = pick_proc ctx in
            Store.set_fault ctx.store ~proc:v1 (Some Store.Io_error);
            kill_restart ctx v1;
            Store.set_fault ctx.store ~proc:v1 None;
            if Stats.count stats "live:store:persist-failed" = 0 then
              violate ctx "store-degrade"
                "no persist failure recorded under the EIO fault";
            broadcast_expect ctx "post-eio";
            (* torn write: a half-written .tmp is left behind; restart
               restores the surviving durable record and discards the
               leftover *)
            let v2 = pick_proc ctx in
            Store.set_fault ctx.store ~proc:v2 (Some Store.Torn_write);
            kill_restart ctx v2;
            Store.set_fault ctx.store ~proc:v2 None;
            broadcast_expect ctx "post-torn";
            (* lost flush closed by a machine crash: the unflushed
               record is lost, the last durable one restores, the
               stale-but-valid state rejoins through the ratchet *)
            let v3 = pick_proc ctx in
            Store.set_fault ctx.store ~proc:v3 (Some Store.Lost_flush);
            (* cycle a different member so v3 persists view installs
               inside the lost-flush window *)
            kill_restart ctx (pick_other ctx v3);
            Store.set_fault ctx.store ~proc:v3 None;
            kill_restart ctx v3 ~crash:true;
            broadcast_expect ctx "post-lost-flush";
            (* direct on-disk corruption: the checksum must reject the
               record (never restore it as valid) and the amnesiac
               restart must rejoin at a strictly later group id *)
            let v4 = pick_proc ctx in
            kill_restart ctx v4 ~before_restart:(fun () ->
                match Store.record_path ctx.store ~self:v4 with
                | Some path when Sys.file_exists path -> flip_byte path
                | _ ->
                  violate ctx "corrupt-setup" "no on-disk record to corrupt");
            if Stats.count stats "live:store:restore-corrupt" = 0 then
              violate ctx "checksum"
                "the flipped record was not rejected by restore";
            broadcast_expect ctx "post-corrupt"));
  }

let impair_churn =
  let n = 5 in
  {
    name = "impair-churn";
    n;
    describe =
      "one directed link impaired (15ms +5ms jitter, 20% loss), the \
       group must hold, then a kill/restart ridden out under the \
       impairment";
    run =
      (fun ~seed ~base_port ->
        run_ctx ~name:"impair-churn" ~n ~seed ~base_port (fun ctx ->
            let src = pick_proc ctx in
            let dst = pick_other ctx src in
            let impaired_node = Cluster.node ctx.cluster src in
            Transport.impair
              (Node.transport impaired_node)
              ~dst ~delay:(Time.of_ms 15) ~jitter:(Time.of_ms 5) ~drop:0.2
              ~now:(fun () -> Clock.now ctx.clock)
              ();
            run_for ctx (Time.of_sec 1);
            ignore (settle ctx ~property:"impair-stability" (Proc_set.full ~n));
            sample_invariants ctx ~phase:"impaired";
            broadcast_expect ctx "impaired";
            (* the kill/restart rides out under the impairment; the
               impaired endpoint stays up so the rule survives *)
            kill_restart ctx (pick_other ctx src) ~downtime:(Time.of_ms 200);
            Transport.clear_impairments (Node.transport impaired_node);
            broadcast_expect ctx "healed"));
  }

let paused_member =
  let n = 5 in
  (* The surveillance deadline is [2d]; the default live d of 30 ms
     leaves no room for a pause that is both schedulable and safely
     under 60 ms, so this scenario widens d to 150 ms: a 100 ms pause
     sits at a third of the 300 ms deadline, a multi-second pause is
     far past it. *)
  let params =
    lazy
      (Params.make ~sigma:(Time.of_ms 5) ~epsilon:(Time.of_ms 5)
         ~d:(Time.of_ms 150) ~adaptive_suspicion:true ~n ())
  in
  {
    name = "paused-member";
    n;
    describe =
      "SIGSTOP analog: a 100ms pause (deadline 300ms) must cause no \
       exclusion; a long pause must be excluded and absorbed back on \
       resume";
    run =
      (fun ~seed ~base_port ->
        run_ctx ~name:"paused-member" ~n ~seed ~base_port
          ~params:(Lazy.force params) (fun ctx ->
            let full = Proc_set.full ~n in
            (* short pause: well under the deadline *)
            let p = pick_proc ctx in
            let np = Cluster.node ctx.cluster p in
            ctx.perturbed <- Proc_set.add p ctx.perturbed;
            let t_pause = Clock.now ctx.clock in
            Node.pause np;
            ctx.paused <- Proc_set.add p ctx.paused;
            run_for ctx (Time.of_ms 100);
            Node.resume np;
            ctx.paused <- Proc_set.remove p ctx.paused;
            ignore (settle ctx ~property:"short-pause-stability" full);
            if
              List.exists
                (fun v ->
                  Time.compare v.at t_pause >= 0
                  && not (Proc_set.mem p v.group))
                !(ctx.views)
            then
              violate ctx "short-pause-exclusion"
                (Fmt.str
                   "a 100 ms pause of %a (deadline 300 ms) caused an exclusion"
                   Proc_id.pp p);
            broadcast_expect ctx "post-short-pause";
            (* long pause: must be excluded, then absorbed on resume *)
            let q = pick_proc ctx in
            let nq = Cluster.node ctx.cluster q in
            ctx.perturbed <- Proc_set.add q ctx.perturbed;
            let t_pause = Clock.now ctx.clock in
            Node.pause nq;
            ctx.paused <- Proc_set.add q ctx.paused;
            if settle ctx ~property:"paused-exclusion" (Proc_set.remove q full)
            then
              ctx.exclusions <-
                Time.sub (Clock.now ctx.clock) t_pause :: ctx.exclusions;
            sample_invariants ctx ~phase:"paused-excluded";
            run_for ctx (Time.of_ms 200);
            let t_resume = Clock.now ctx.clock in
            Node.resume nq;
            ctx.paused <- Proc_set.remove q ctx.paused;
            if settle ctx ~property:"paused-rejoin" full then
              ctx.rejoins <-
                Time.sub (Clock.now ctx.clock) t_resume :: ctx.rejoins;
            broadcast_expect ctx "post-long-pause"));
  }

let scenarios = [ kill_restart_churn; storage_chaos; impair_churn; paused_member ]

let find name = List.find_opt (fun s -> String.equal s.name name) scenarios

let default_base_port = 48100

let run_one ?(base_port = default_base_port) ~seed scenario =
  scenario.run ~seed ~base_port

(* ---------------------------------------------------------------- *)
(* sweeps *)

type report = {
  scenario : scenario;
  root_seed : int;
  runs : int;
  outcomes : outcome list;
  exclusion : Stats.summary option;
  rejoin : Stats.summary option;
}

let sweep ?(runs = 3) ?(base_port = default_base_port) ~seed scenario =
  let outcomes =
    List.mapi
      (fun i s ->
        (* each run on its own port stride: sequential runs, but a
           lingering socket must not collide with the next run *)
        scenario.run ~seed:s ~base_port:(base_port + (i * 16)))
      (Runner.seeds ~seed ~count:runs)
  in
  let clean = List.filter ok outcomes in
  {
    scenario;
    root_seed = seed;
    runs;
    outcomes;
    exclusion =
      Topology.seconds (List.concat_map (fun (o : outcome) -> o.exclusions) clean);
    rejoin = Topology.seconds (List.concat_map (fun (o : outcome) -> o.rejoins) clean);
  }

let report_ok r = List.for_all ok r.outcomes

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s: %d/%d clean" r.scenario.name
    (List.length (List.filter ok r.outcomes))
    r.runs;
  (match r.exclusion with
  | Some d -> Fmt.pf ppf "@,  exclusion (s) %a" Stats.pp_summary d
  | None -> ());
  (match r.rejoin with
  | Some d -> Fmt.pf ppf "@,  rejoin (s)    %a" Stats.pp_summary d
  | None -> ());
  List.iter
    (fun o -> if not (ok o) then Fmt.pf ppf "@,  %a" pp_outcome o)
    r.outcomes;
  Fmt.pf ppf "@]"
