(* The live workloads: five members of the full stack (clock
   synchronization + membership + broadcast) in one process, each a
   real UDP endpoint on loopback, driven by an open-loop generator. *)

open Tasim
open Broadcast
open Timewheel
open Runtime
open Common

type spec = {
  name : string;
  rate : float;  (** mean updates per second *)
  poisson : bool;  (** Poisson arrivals, else evenly spaced *)
  body_size : int;  (** payload bytes per update *)
  kills : bool;  (** kill the decider every [kill_period_s] *)
}

let n = 5
let semantics = Semantics.total_strong

(* Below the kernel's ephemeral range and clear of every port the
   repository's tests, bench targets and live binary use
   (47700-49700). *)
let base_port = 29700

let setups = 3
let form_timeout = Time.of_sec 30
let warmup = Time.of_ms 500
let drain_timeout = Time.of_sec 5
let kill_period_s = 1.5
let restart_after_s = 0.75

(* The last restart comes at least this long before the load stops.
   When a rejoin overlapped the end of the load, the group was left in
   the n-failure state: one member had installed the view admitting
   the restarted member and the others had not. It had not recovered
   5 s later, in 4 runs of 5. *)
let rejoin_under_load_s = 1.5

(* Only these members are killed, each when it holds the decider role,
   and updates are submitted only at the others. A restarted member
   numbers its proposals from 0 again, and the group drops every
   proposal whose (origin, seq) it already delivered, so updates
   submitted at a restarted member are lost until its sequence passes
   its previous incarnation's. Keeping clients away from the killed
   members keeps the workload free of failed operations while that
   holds. *)
let victims = [ 3; 4 ]
let all_members = (1 lsl n) - 1

let clients_of (spec : spec) =
  if spec.kills then
    List.fold_left (fun acc i -> acc land lnot (1 lsl i)) all_members victims
  else all_members

(* Without faults, service gap is probed at this spacing: the wait a
   client sees from an arbitrary instant to the next served update. *)
let probe_period_s = 0.01

type msg = (upd, app) Full_stack.msg
type state = (upd, app) Full_stack.state
type obs = upd Full_stack.obs
type node = (state, msg, obs) Node.t

(* Everything measured inside one measurement window. *)
type window = {
  lat : Samples.t;  (** due -> Delivered, ms, one per expected member *)
  lag : Samples.t;  (** generator lateness, ms *)
  stage_queue : Samples.t;
  stage_order : Samples.t;
  stage_deliver : Samples.t;
  gaps : Samples.t;
  rejoins : Samples.t;
  mutable probes : (Time.t * int) list;  (** pending: instant, victim *)
  mutable completed : int;
  mutable kills : int;
}

let window () =
  {
    lat = Samples.create ();
    lag = Samples.create ();
    stage_queue = Samples.create ();
    stage_order = Samples.create ();
    stage_deliver = Samples.create ();
    gaps = Samples.create ();
    rejoins = Samples.create ();
    probes = [];
    completed = 0;
    kills = 0;
  }

(* Per-update tables indexed by update id, and the membership the
   benchmark observed. *)
type book = {
  clock : Clock.t;
  due : Ivec.t;
  expect : Ivec.t;  (** members that must deliver: bitmask *)
  got : Ivec.t;  (** members that delivered: bitmask *)
  queued : Ivec.t;  (** traced: origin encoded its proposal *)
  ordered : Ivec.t;  (** traced: first decision holding it *)
  pending_order : (int * int, int) Hashtbl.t;  (** proposal id -> update *)
  mutable serving : int;  (** members up and inside their own view *)
  mutable outstanding : int;
  mutable first_open : int;
  mutable dups : int;
  mutable formed : bool;
  views : (Group_id.t, Proc_set.t) Hashtbl.t;  (** installed after formation *)
  cur_group : Proc_set.t array;
  mutable decider_group : Proc_set.t;  (** view the last decider held *)
  mutable rotations : int;  (** Became_decider observations *)
  mutable suspicions : int;
  mutable late : int;
  mutable handovers : int;
  mutable win : window;
}

let book clock =
  {
    clock;
    due = Ivec.create ();
    expect = Ivec.create ();
    got = Ivec.create ();
    queued = Ivec.create ();
    ordered = Ivec.create ();
    pending_order = Hashtbl.create 256;
    serving = 0;
    outstanding = 0;
    first_open = 0;
    dups = 0;
    formed = false;
    views = Hashtbl.create 16;
    cur_group = Array.make n Proc_set.empty;
    decider_group = Proc_set.empty;
    rotations = 0;
    suspicions = 0;
    late = 0;
    handovers = 0;
    win = window ();
  }

let ms t = Time.to_ms_f t
let complete b id = Ivec.get b.got id land Ivec.get b.expect id = Ivec.get b.expect id

let note_completed b =
  b.outstanding <- b.outstanding - 1;
  b.win.completed <- b.win.completed + 1

let on_deliver b i at id =
  let bit = 1 lsl i in
  let got = Ivec.get b.got id in
  if got land bit <> 0 then b.dups <- b.dups + 1
  else begin
    let was_complete = complete b id in
    Ivec.set b.got id (got lor bit);
    let exp = Ivec.get b.expect id in
    let due = Ivec.get b.due id in
    if exp land bit <> 0 then begin
      Samples.add b.win.lat (ms (Time.sub at due));
      let ordered = Ivec.get b.ordered id in
      if ordered >= 0 then Samples.add b.win.stage_deliver (ms (Time.sub at ordered));
      if (not was_complete) && complete b id then note_completed b
    end;
    if b.win.probes <> [] then
      b.win.probes <-
        List.filter
          (fun (instant, victim) ->
            if Time.compare instant due <= 0 && i <> victim then begin
              Samples.add b.win.gaps (ms (Time.sub at instant));
              false
            end
            else true)
          b.win.probes
  end

let on_obs b i at (o : obs) =
  let bit = 1 lsl i in
  match o with
  | Full_stack.Member_obs (Member.Delivered { proposal; _ }) ->
    on_deliver b i at proposal.Proposal.payload.id
  | Full_stack.Member_obs (Member.View_installed { group; group_id }) ->
    b.cur_group.(i) <- group;
    if Proc_set.mem (Proc_id.of_int i) group then b.serving <- b.serving lor bit
    else b.serving <- b.serving land lnot bit;
    if b.formed then Hashtbl.replace b.views group_id group
  | Full_stack.Member_obs (Member.Suspected _) ->
    if b.formed then b.suspicions <- b.suspicions + 1
  | Full_stack.Member_obs (Member.Late_rejected _) ->
    if b.formed then b.late <- b.late + 1
  | Full_stack.Member_obs Member.Became_decider ->
    b.rotations <- b.rotations + 1;
    (* the rotation hands the role on inside one view; a decider in
       another view than the previous one took it over a view change *)
    if b.formed && not (Proc_set.equal b.cur_group.(i) b.decider_group) then
      b.handovers <- b.handovers + 1;
    b.decider_group <- b.cur_group.(i)
  | Full_stack.Member_obs Member.Excluded -> b.serving <- b.serving land lnot bit
  | Full_stack.Member_obs (Member.Transition _)
  | Full_stack.Sync_obs _ | Full_stack.Member_started ->
    ()

(* ------------------------------------------------------------------ *)
(* Layer wrappers (traced runs only) *)

let codec_kinds =
  [
    "proposal"; "decision"; "retransmit"; "nack"; "no-decision"; "join";
    "reconfiguration"; "state-transfer"; "cs-request"; "cs-reply";
  ]

let note_encoded b ~sender (m : msg) =
  match m with
  | Full_stack.Gc (Control_msg.Proposal_msg p)
    when Proc_id.equal sender p.Proposal.id.Proposal.origin ->
    let id = p.Proposal.payload.id in
    if Ivec.get b.queued id < 0 then begin
      let now = Clock.now b.clock in
      Ivec.set b.queued id now;
      Samples.add b.win.stage_queue (ms (Time.sub now (Ivec.get b.due id)));
      let pid = p.Proposal.id in
      Hashtbl.replace b.pending_order
        (Proc_id.to_int pid.Proposal.origin, pid.Proposal.seq)
        id
    end
  | Full_stack.Gc (Control_msg.Decision d) when Hashtbl.length b.pending_order > 0
    ->
    Oal.iter_entries d.Control_msg.d_oal (fun e ->
        match e.Oal.body with
        | Oal.Update u ->
          let pid = u.Oal.proposal_id in
          let key = (Proc_id.to_int pid.Proposal.origin, pid.Proposal.seq) in
          (match Hashtbl.find_opt b.pending_order key with
          | Some id ->
            Hashtbl.remove b.pending_order key;
            let now = Clock.now b.clock in
            Ivec.set b.ordered id now;
            Samples.add b.win.stage_order
              (ms (Time.sub now (Ivec.get b.queued id)))
          | None -> ())
        | Oal.Membership _ -> ())
  | _ -> ()

let encode_to b ~traced =
  if not traced then Codec.encode_to payload
  else fun ~sender m w ->
    if not !Trace.on then Codec.encode_to payload ~sender m w
    else begin
      let len =
        Trace.span
          ("codec.encode_us." ^ Full_stack.kind_of_msg m)
          (fun () -> Codec.encode_to payload ~sender m w)
      in
      Trace.add (Trace.acc "codec.encode_bytes") (float_of_int len);
      note_encoded b ~sender m;
      len
    end

let decode ~traced =
  if not traced then Codec.decode_bytes payload
  else fun buf ~pos ~len ->
    if not !Trace.on then Codec.decode_bytes payload buf ~pos ~len
    else begin
      let t0 = Trace.now_us () in
      let r = Codec.decode_bytes payload buf ~pos ~len in
      let dt = Trace.now_us () -. t0 in
      Trace.spans_us := !Trace.spans_us +. dt;
      (match r with
      | Ok (_, m) ->
        Trace.add (Trace.acc ("codec.decode_us." ^ Full_stack.kind_of_msg m)) dt;
        (match m with
        | Full_stack.Gc (Control_msg.Decision d) ->
          Trace.add (Trace.acc "codec.oal_entries")
            (float_of_int (Oal.cardinal d.Control_msg.d_oal))
        | _ -> ())
      | Error _ -> Trace.add (Trace.acc "codec.decode_us.error") dt);
      r
    end

(* ------------------------------------------------------------------ *)
(* Cluster assembly *)

let params = Params.make ~sigma:(Time.of_ms 5) ~epsilon:(Time.of_ms 5) ~n ()

let mk_nodes b ~traced ~clock =
  let store = Live_store.in_memory () in
  let persist ~self ~now:_ r =
    if traced then
      Trace.nested "live_store.persist_us" (fun () ->
          Live_store.persist store ~self r)
    else Live_store.persist store ~self r
  in
  let member_cfg =
    Member.config ~apply ~persist
      ~restore:(fun ~self ~now:_ -> Live_store.restore store ~self)
      ~initial_app params
  in
  let automaton =
    Full_stack.automaton member_cfg (Clocksync.Protocol.default_config ~n)
  in
  let automaton =
    if traced then Trace.automaton ~kind_of:Full_stack.kind_of_msg automaton
    else automaton
  in
  let encode_to = encode_to b ~traced in
  let decode = decode ~traced in
  List.map
    (fun self ->
      let i = Proc_id.to_int self in
      let mk_transport stats =
        Transport.create ~encode_to ~decode ~kind_of:Full_stack.kind_of_msg
          ~batching:true ~self ~n
          ~port_of:(fun p -> base_port + Proc_id.to_int p)
          ~stats ()
      in
      let on_obs =
        if traced then fun at o -> Trace.span "bench.obs_us" (fun () -> on_obs b i at o)
        else fun at o -> on_obs b i at o
      in
      Node.create ~automaton ~clock ~mk_transport ~on_obs ())
    (Proc_id.all ~n)

let member_of (node : node) = Option.bind (Node.state node) Full_stack.member

let agreed_full nodes =
  let full = Proc_set.full ~n in
  match List.map member_of nodes with
  | Some m0 :: rest ->
    Proc_set.equal (Member.group m0) full
    && List.for_all
         (function
           | Some m ->
             Proc_set.equal (Member.group m) full
             && Group_id.equal (Member.group_id m) (Member.group_id m0)
           | None -> false)
         rest
  | None :: _ | [] -> false

(* The transport sets SO_REUSEADDR, so a second instance of the
   benchmark would bind the same ports without error and the two groups
   would talk to each other. A plain bind fails while any socket holds
   the port, so probe them all first. *)
let check_ports () =
  for i = 0 to n - 1 do
    let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close s)
      (fun () -> Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + i)))
  done

(* Build the cluster and run it to a full agreed view; the book and
   cluster of the last of [setups] builds are kept for measuring. *)
let setup ~traced =
  let build () =
    let w0 = Unix.gettimeofday () in
    let clock = Clock.create () in
    let b = book clock in
    let nodes = mk_nodes b ~traced ~clock in
    let cluster = Cluster.create ~clock ~nodes in
    Cluster.start cluster;
    let formed =
      Cluster.run_until cluster
        ~deadline:(Time.add (Clock.now clock) form_timeout)
        (fun () -> agreed_full nodes)
    in
    if not formed then begin
      List.iter Node.kill nodes;
      failwith "live cluster did not form a full view within 30 s"
    end;
    b.formed <- true;
    (Unix.gettimeofday () -. w0, b, cluster, nodes)
  in
  check_ports ();
  let rec go k times =
    let s, b, cluster, nodes = build () in
    if k = 1 then (s :: times, b, cluster, nodes)
    else begin
      List.iter Node.kill nodes;
      go (k - 1) (s :: times)
    end
  in
  go setups []

(* ------------------------------------------------------------------ *)
(* Load *)

let counter_sum nodes prefix =
  let lp = String.length prefix in
  List.fold_left
    (fun acc node ->
      List.fold_left
        (fun acc (name, v) ->
          if String.length name >= lp && String.sub name 0 lp = prefix then
            acc + v
          else acc)
        acc
        (Stats.counters (Node.stats node)))
    0 nodes

let counter_total nodes name =
  List.fold_left (fun acc node -> acc + Stats.count (Node.stats node) name) 0 nodes

type marks = {
  cpu : float;
  gc : gc_mark;
  sent : int;
  recv : int;
  syscalls : int;
  drops : int;
  spans : float;
}

let marks nodes =
  {
    cpu = cpu_s ();
    gc = gc_mark ();
    sent = counter_total nodes "live:sent";
    recv = counter_total nodes "live:recv";
    syscalls = counter_sum nodes "live:syscall:";
    drops = counter_sum nodes "live:drop:";
    spans = !Trace.spans_us;
  }

type event = Probe | Kill | Restart of int

(* Round-robin over the [clients] members that are up and serving. *)
let submit b nodes ~clients ~body ~due =
  let id = Ivec.length b.due in
  let target =
    let rec find k =
      let j = (id + k) mod n in
      if k >= n then None
      else if b.serving land clients land (1 lsl j) <> 0 && Node.is_up nodes.(j)
      then Some j
      else find (k + 1)
    in
    find 0
  in
  match target with
  | None -> false
  | Some j ->
    Ivec.push b.due due;
    Ivec.push b.expect b.serving;
    Ivec.push b.got 0;
    Ivec.push b.queued (-1);
    Ivec.push b.ordered (-1);
    b.outstanding <- b.outstanding + 1;
    Node.inject nodes.(j) (Full_stack.submit ~semantics { id; body });
    true

(* A killed member no longer owes the updates it had not delivered. *)
let excuse b i =
  let bit = 1 lsl i in
  for id = b.first_open to Ivec.length b.due - 1 do
    if not (complete b id) then begin
      let exp = Ivec.get b.expect id in
      if exp land bit <> 0 && Ivec.get b.got id land bit = 0 then begin
        Ivec.set b.expect id (exp land lnot bit);
        if complete b id then note_completed b
      end
    end
  done;
  while b.first_open < Ivec.length b.due && complete b b.first_open do
    b.first_open <- b.first_open + 1
  done

(* An armed kill strikes when a victim takes the decider role after the
   arming, in the poll pass where it does: every kill then lands at the
   same point of the victim's turn. *)
let deciding_victim nodes =
  List.find_opt
    (fun i ->
      match member_of nodes.(i) with Some m -> Member.is_decider m | None -> false)
    victims

let victim_decides b nodes ~armed_at =
  b.rotations > armed_at && deciding_victim nodes <> None

let kill_decider b nodes ~now =
  match deciding_victim nodes with
  | None -> None
  | Some i ->
    Node.kill nodes.(i);
    b.serving <- b.serving land lnot (1 lsl i);
    b.win.probes <- b.win.probes @ [ (now, i) ];
    b.win.kills <- b.win.kills + 1;
    excuse b i;
    Some i

type window_result = {
  w : window;
  before : marks;
  after : marks;
  wall_s : float;
  submitted : int;
  failed : int;
}

(* One measurement window: [seconds] of open-loop load (and, with
   [spec.kills], decider kills and restarts), then a drain until every
   update is delivered where it is owed and every restarted member is
   back in the full view. *)
let run_window b cluster (nodes : node array) (spec : spec) ~seconds ~rng ~bodies =
  let clock = b.clock in
  b.win <- window ();
  let id0 = Ivec.length b.due in
  let t0 = Clock.now clock in
  let t_end = Time.add t0 (Time.of_sec_f seconds) in
  let jitter span = Time.of_sec_f (Random.State.float rng span) in
  (* kills are armed every [kill_period_s], up to 0.5 s late *)
  let last_kill =
    Time.sub t_end (Time.of_sec_f (restart_after_s +. rejoin_under_load_s))
  in
  let events =
    if spec.kills then
      let rec ks k acc =
        let at =
          Time.add t0
            (Time.add
               (Time.of_sec_f (1.0 +. (float_of_int k *. kill_period_s)))
               (jitter 0.5))
        in
        if Time.compare at last_kill >= 0
        then List.rev acc
        else ks (k + 1) ((at, Kill) :: acc)
      in
      ks 0 []
    else
      let rec ps k acc =
        let at =
          Time.add t0
            (Time.add
               (Time.of_sec_f (float_of_int k *. probe_period_s))
               (jitter probe_period_s))
        in
        if Time.compare at t_end >= 0 then List.rev acc
        else ps (k + 1) ((at, Probe) :: acc)
      in
      ps 0 []
  in
  let events = ref events in
  let k = ref 0 in
  let due = ref t0 in
  let arrival () =
    let gap =
      if spec.poisson then -.log (1.0 -. Random.State.float rng 1.0) /. spec.rate
      else 1.0 /. spec.rate
    in
    due := Time.add !due (Time.of_sec_f gap)
  in
  arrival ();
  let rejoin_from = ref None in
  let kill_armed = ref None in
  let clients = clients_of spec in
  let rejoined () =
    match !rejoin_from with
    | Some r when agreed_full (Array.to_list nodes) ->
      Samples.add b.win.rejoins (ms (Time.sub (Clock.now clock) r));
      rejoin_from := None;
      true
    | Some _ | None -> false
  in
  let before = marks (Array.to_list nodes) in
  let w0 = Unix.gettimeofday () in
  let drain_deadline = Time.add t_end drain_timeout in
  let finished = ref false in
  while not !finished do
    let now = Clock.now clock in
    (* faults before submissions, so no update is injected into a
       member that dies before its next poll *)
    let rec fire () =
      match !events with
      | (at, ev) :: rest when Time.compare at now <= 0 ->
        events := rest;
        (match ev with
        | Probe -> b.win.probes <- b.win.probes @ [ (at, -1) ]
        | Kill -> kill_armed := Some b.rotations
        | Restart i ->
          Node.restart nodes.(i);
          rejoin_from := Some now);
        fire ()
      | _ -> ()
    in
    fire ();
    ignore (rejoined ());
    (* an armed kill waits for a victim to hold the decider role (it
       rotates every D) and for the previous victim to be back *)
    (match !kill_armed with
    | Some _ when Time.compare now last_kill >= 0 -> kill_armed := None
    | Some armed_at when !rejoin_from = None && victim_decides b nodes ~armed_at -> (
      match kill_decider b nodes ~now with
      | Some i ->
        kill_armed := None;
        let r = Time.add now (Time.of_sec_f restart_after_s) in
        events :=
          List.merge (fun (a, _) (c, _) -> Time.compare a c) !events [ (r, Restart i) ]
      | None -> ())
    | Some _ | None -> ());
    while Time.compare !due now <= 0 && Time.compare !due t_end < 0 do
      if submit b nodes ~clients ~body:bodies.(!k mod Array.length bodies) ~due:!due
      then Samples.add b.win.lag (ms (Time.sub now !due));
      incr k;
      arrival ()
    done;
    if Time.compare now t_end >= 0
       && ((b.outstanding = 0 && !rejoin_from = None && !events = [] && !kill_armed = None)
          || Time.compare now drain_deadline >= 0)
    then finished := true
    else begin
      let deadline =
        List.fold_left Time.min drain_deadline
          [
            (if Time.compare !due t_end < 0 then !due else t_end);
            (match !events with (at, _) :: _ -> at | [] -> drain_deadline);
          ]
      in
      let deadline = Time.max deadline (Time.add now (Time.of_us 1)) in
      ignore
        (Cluster.run_until cluster ~deadline ~poll_cap:(Time.of_ms 20) (fun () ->
             rejoined ()
             || (Time.compare now t_end >= 0 && b.outstanding = 0)
             ||
             match !kill_armed with
             | Some armed_at -> victim_decides b nodes ~armed_at
             | None -> false))
    end
  done;
  let wall_s = Unix.gettimeofday () -. w0 in
  let after = marks (Array.to_list nodes) in
  let submitted = Ivec.length b.due - id0 in
  let failed = ref 0 in
  for id = id0 to Ivec.length b.due - 1 do
    if not (complete b id) then incr failed
  done;
  { w = b.win; before; after; wall_s; submitted; failed = !failed }

(* ------------------------------------------------------------------ *)
(* Correctness *)

let check b (nodes : node array) ~kills =
  let v = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let states =
    Array.to_list nodes
    |> List.filter_map (fun node ->
           Option.map (fun m -> (Node.self node, m)) (member_of node))
  in
  if List.length states <> n then
    fail "%d of %d members hold a member state at the end" (List.length states) n;
  if not (agreed_full (Array.to_list nodes)) then
    fail "members do not agree on the full view at the end";
  (match states with
  | (_, m0) :: rest ->
    let a0 = Member.app m0 in
    List.iter
      (fun (p, m) ->
        let a = Member.app m in
        if a.count <> a0.count || a.digest <> a0.digest then
          fail "digest of p%d (%d updates, %x) differs from p0's (%d, %x)"
            (Proc_id.to_int p) a.count a.digest a0.count a0.digest)
      rest
  | [] -> ());
  if b.dups > 0 then fail "%d duplicate deliveries" b.dups;
  List.iter
    (fun x -> fail "invariant: %s" (Fmt.str "%a" Invariant.pp_violation x))
    (Invariant.check_all ~n states);
  let full = Proc_set.full ~n in
  let views = Hashtbl.fold (fun _ g acc -> g :: acc) b.views [] in
  let exclusions = List.length (List.filter (fun g -> not (Proc_set.equal g full)) views) in
  let rejoins = List.length views - exclusions in
  if exclusions <> kills || rejoins <> kills then
    fail "%d kills but %d exclusion and %d rejoin views after formation" kills
      exclusions rejoins;
  List.rev !v

(* ------------------------------------------------------------------ *)
(* The workload *)

let e2e r ~setup_times =
  let w = r.w in
  [
    m "deliver_p50_ms" (Samples.median w.lat) "ms";
    m "deliver_p99_ms" (Samples.quantile w.lat 0.99) "ms";
    m "cpu_us_per_update"
      ((r.after.cpu -. r.before.cpu) *. 1e6 /. float_of_int (max 1 w.completed))
      "us";
    m "service_gap_ms" (Samples.median w.gaps) "ms";
    m "heap_top_mb" (heap_top_mb ()) "MB";
    m "setup_s" (median_of setup_times) "s";
  ]

let value name l = (List.find (fun (x : metric) -> x.name = name) l).value

let per_layer b r ~untraced =
  let w = r.w in
  let delivered = float_of_int (max 1 w.completed) in
  let e = e2e r ~setup_times:[ 0.0 ] in
  let p50 = value "deliver_p50_ms" e in
  let stages =
    [
      m "stage.queue_ms" (Samples.median w.stage_queue) "ms";
      m "stage.order_ms" (Samples.median w.stage_order) "ms";
      m "stage.deliver_ms" (Samples.median w.stage_deliver) "ms";
    ]
  in
  let stage_sum = List.fold_left (fun acc x -> acc +. x.value) 0.0 stages in
  let sent = r.after.sent - r.before.sent in
  let recv = r.after.recv - r.before.recv in
  let cpu_ms = (r.after.cpu -. r.before.cpu) *. 1e3 in
  List.concat
    [
      List.concat_map
        (fun k ->
          [
            m ("codec.encode_us." ^ k) (Trace.mean ("codec.encode_us." ^ k)) "us";
            m ("codec.decode_us." ^ k) (Trace.mean ("codec.decode_us." ^ k)) "us";
          ])
        codec_kinds;
      [
        m "codec.bytes_per_update" (Trace.total "codec.encode_bytes" /. delivered)
          "B";
        m "codec.oal_entries_per_decision" (Trace.mean "codec.oal_entries")
          "count";
        m "transport.frames_per_update" (float_of_int sent /. delivered) "count";
        m "transport.syscalls_per_frame"
          (float_of_int (r.after.syscalls - r.before.syscalls)
          /. float_of_int (max 1 (sent + recv)))
          "count";
        m "transport.drops" (float_of_int (r.after.drops - r.before.drops)) "count";
      ];
      List.map
        (fun k ->
          m ("member.step_us." ^ k) (Trace.mean ("member.step_us." ^ k)) "us")
        ("submit" :: codec_kinds);
      [ m "member.timer_us" (Trace.mean "member.timer_us") "us" ];
      stages;
      [
        m "stage.gap_ms" (p50 -. stage_sum) "ms";
        m "member.views_after_formation" (float_of_int (Hashtbl.length b.views))
          "count";
        m "member.suspicions" (float_of_int b.suspicions) "count";
        m "member.late_rejected" (float_of_int b.late) "count";
        m "member.decider_handovers" (float_of_int b.handovers) "count";
        m "member.rejoin_ms" (Samples.median w.rejoins) "ms";
        m "live_store.persist_us" (Trace.mean "live_store.persist_us") "us";
        m "live_store.persists"
          (float_of_int (Trace.calls "live_store.persist_us"))
          "count";
        m "gc.minor_words_per_update"
          ((r.after.gc.minor -. r.before.gc.minor) /. delivered)
          "words";
        m "gc.promoted_words_per_update"
          ((r.after.gc.promoted -. r.before.gc.promoted) /. delivered)
          "words";
        m "gc.major_collections"
          (float_of_int (r.after.gc.majors - r.before.gc.majors))
          "count";
        m "runtime.other_cpu_ms"
          (cpu_ms -. ((r.after.spans -. r.before.spans) /. 1e3))
          "ms";
        m "loadgen.lag_p99_ms" (Samples.quantile w.lag 0.99) "ms";
        m "trace.overhead_deliver_p50_ms"
          (p50 -. value "deliver_p50_ms" untraced)
          "ms";
        m "trace.overhead_cpu_us_per_update"
          (value "cpu_us_per_update" e -. value "cpu_us_per_update" untraced)
          "us";
      ];
    ]

let run spec ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed |] in
  let bodies = bodies ~seed ~size:spec.body_size in
  let setup_times, b, cluster, nodes = setup ~traced in
  let nodes = Array.of_list nodes in
  Fun.protect ~finally:(fun () -> Array.iter Node.kill nodes) @@ fun () ->
  Cluster.run_for cluster ~span:warmup;
  let batched = Transport.batched (Node.transport nodes.(0)) in
  let window secs = run_window b cluster nodes spec ~seconds:secs ~rng ~bodies in
  let results, metrics, notes =
    if not traced then begin
      let r = window seconds in
      ([ r ], e2e r ~setup_times, [])
    end
    else begin
      (* half the time untraced, half traced, over one cluster: the
         difference is the tracing overhead *)
      Trace.on := false;
      let ra = window (seconds /. 2.0) in
      let untraced = e2e ra ~setup_times in
      Trace.reset ();
      Trace.on := true;
      let rb = window (seconds /. 2.0) in
      Trace.on := false;
      ([ ra; rb ], per_layer b rb ~untraced, e2e rb ~setup_times)
    end
  in
  let kills = List.fold_left (fun acc r -> acc + r.w.kills) 0 results in
  let violations = check b nodes ~kills in
  let attempted = List.fold_left (fun acc r -> acc + r.submitted) 0 results in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 results in
  let last = List.nth results (List.length results - 1) in
  let notes =
    notes
    @ [
        m "samples" (float_of_int (Samples.count last.w.lat)) "count";
        m "kills" (float_of_int kills) "count";
        m "rejoin_ms" (Samples.median last.w.rejoins) "ms";
        m "window_wall_s" last.wall_s "s";
      ]
  in
  ( batched,
    {
      correct = violations = [] && attempted > 0;
      violations;
      attempted;
      failed;
      metrics;
      notes;
    } )
