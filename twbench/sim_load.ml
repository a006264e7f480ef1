(* The simulated workload: 64 members of the membership + broadcast
   stack on the discrete-event engine (oracle-synchronized clocks, as
   the paper's experiments assume), faultless, with a steady update
   stream. No sockets: it times the simulator (engine, event heap,
   simulated network) and the member automaton at a large group. *)

open Tasim
open Timewheel
open Common

let n = 64
(* Decisions carry every update until it is stable at all 64 members,
   so the cost of one update grows with the number in flight: at 50/s
   the simulator managed 22k events/s against 500k/s at 1/s. 10/s keeps
   the oal and delivery paths busy without letting them swamp the
   engine. *)
let rate = 10.0 (* updates per simulated second *)
let body_size = 64
let setups = 11
let chunk = Time.of_ms 200

(* The run simulates a fixed span, [sim_per_wall] simulated seconds per
   second of the requested run time (about the time it takes on a
   2-core x86 VM), so the same seed gives the same simulated
   execution and only the wall and CPU time vary. *)
let sim_per_wall = 10.0
let probes_per_chunk = 10
let drain_timeout = Time.of_sec 5

let event_kinds =
  [
    "submit"; "proposal"; "decision"; "retransmit"; "nack"; "no-decision";
    "join"; "reconfiguration"; "state-transfer";
  ]

type engine =
  ((upd, app) Member.state, (upd, app) Control_msg.t, upd Member.obs) Engine.t

type book = {
  due : Ivec.t;
  got : Ivec.t;  (** deliveries so far *)
  seen_lo : Ivec.t;  (** members 0-31 that delivered: bitmask *)
  seen_hi : Ivec.t;  (** members 32-63 *)
  mutable lat : Samples.t;  (** due -> Delivered, ms *)
  mutable gaps : Samples.t;
  mutable probes : Time.t list;
  mutable completed : int;
  mutable dups : int;
  mutable formed : bool;
  mutable views : int;
  mutable suspicions : int;
  mutable late : int;
  mutable handovers : int;
  mutable decider_group : Proc_set.t;  (** view the last decider held *)
  cur_group : Proc_set.t array;
}

let book () =
  {
    due = Ivec.create ();
    got = Ivec.create ();
    seen_lo = Ivec.create ();
    seen_hi = Ivec.create ();
    lat = Samples.create ();
    gaps = Samples.create ();
    probes = [];
    completed = 0;
    dups = 0;
    formed = false;
    views = 0;
    suspicions = 0;
    late = 0;
    handovers = 0;
    decider_group = Proc_set.empty;
    cur_group = Array.make n Proc_set.empty;
  }

let on_deliver b i at id =
  let vec, bit = if i < 32 then (b.seen_lo, 1 lsl i) else (b.seen_hi, 1 lsl (i - 32)) in
  let seen = Ivec.get vec id in
  if seen land bit <> 0 then b.dups <- b.dups + 1
  else begin
    Ivec.set vec id (seen lor bit);
    let due = Ivec.get b.due id in
    Samples.add b.lat (Time.to_ms_f (Time.sub at due));
    let got = Ivec.get b.got id + 1 in
    Ivec.set b.got id got;
    if got = n then b.completed <- b.completed + 1;
    if b.probes <> [] then
      b.probes <-
        List.filter
          (fun instant ->
            if Time.compare instant due <= 0 then begin
              Samples.add b.gaps (Time.to_ms_f (Time.sub at instant));
              false
            end
            else true)
          b.probes
  end

let on_obs b at p (o : upd Member.obs) =
  let i = Proc_id.to_int p in
  match o with
  | Member.Delivered { proposal; _ } -> on_deliver b i at proposal.Broadcast.Proposal.payload.id
  | Member.View_installed { group; _ } ->
    b.cur_group.(i) <- group;
    if b.formed then b.views <- b.views + 1
  | Member.Suspected _ -> if b.formed then b.suspicions <- b.suspicions + 1
  | Member.Late_rejected _ -> if b.formed then b.late <- b.late + 1
  | Member.Became_decider ->
    if b.formed && not (Proc_set.equal b.cur_group.(i) b.decider_group) then
      b.handovers <- b.handovers + 1;
    b.decider_group <- b.cur_group.(i)
  | Member.Transition _ | Member.Excluded -> ()

let params = Params.make ~n ()

let states (e : engine) =
  List.filter_map
    (fun p -> Option.map (fun s -> (p, s)) (Engine.state_of e p))
    (Proc_id.all ~n)

let agreed_full (e : engine) =
  let full = Proc_set.full ~n in
  match states e with
  | (_, s0) :: rest as all ->
    List.length all = n
    && Proc_set.equal (Member.group s0) full
    && List.for_all
         (fun (_, s) ->
           Proc_set.equal (Member.group s) full
           && Broadcast.Group_id.equal (Member.group_id s) (Member.group_id s0))
         rest
  | [] -> false

(* Build the engine and run it to a full agreed view plus one cycle. *)
let build ~seed ~traced =
  let w0 = Unix.gettimeofday () in
  let net = { Net.default_config with Net.delta = params.Params.delta } in
  let engine : engine = Engine.create { Engine.default_config with Engine.net; seed } ~n in
  Engine.classify engine Control_msg.kind;
  let clocks =
    Clocksync.Oracle.clocks (Engine.rng engine) ~n ~epsilon:params.Params.epsilon
      ~max_drift:1e-6
  in
  let store = Array.make n None in
  let member_cfg =
    Member.config ~apply
      ~persist:(fun ~self ~now:_ r -> store.(Proc_id.to_int self) <- Some r)
      ~restore:(fun ~self ~now:_ -> store.(Proc_id.to_int self))
      ~initial_app params
  in
  let automaton = Member.automaton member_cfg in
  let automaton =
    if traced then Trace.automaton ~kind_of:Control_msg.kind automaton else automaton
  in
  List.iter
    (fun p ->
      Engine.add_process engine p automaton ~clock:clocks.(Proc_id.to_int p) ())
    (Proc_id.all ~n);
  let b = book () in
  Engine.on_observe engine (on_obs b);
  let cycle = Params.cycle params in
  let rec form tries =
    if tries = 0 then failwith "simulated group did not form within 20 cycles";
    Engine.run engine ~until:(Time.add (Engine.now engine) cycle);
    if not (agreed_full engine) then form (tries - 1)
  in
  form 20;
  Engine.run engine ~until:(Time.add (Engine.now engine) cycle);
  b.formed <- true;
  (Unix.gettimeofday () -. w0, engine, b)

let counters (e : engine) prefix =
  let lp = String.length prefix in
  List.filter_map
    (fun (name, v) ->
      if String.length name > lp && String.sub name 0 lp = prefix then
        Some (String.sub name lp (String.length name - lp), v)
      else None)
    (Stats.counters (Engine.stats e))

let events (e : engine) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun prefix ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        (counters e prefix))
    [ "sent:"; "delivered:" ];
  tbl

type window = {
  sim_s : float;
  wall_s : float;
  cpu_s : float;
  gc0 : gc_mark;
  gc1 : gc_mark;
  ev0 : (string, int) Hashtbl.t;
  ev1 : (string, int) Hashtbl.t;
  spans_us : float;
  submitted : int;
  completed : int;
  lat : Samples.t;
  gaps : Samples.t;
}

let total tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0

(* Steady load, scheduled one chunk of simulated time ahead, for
   [sim_per_wall * seconds] of simulated time; then a drain until every
   update is delivered at all 64 members. Service gap is probed at
   seeded instants, [probes_per_chunk] per chunk. *)
let run_window (e : engine) (b : book) ~seconds ~bodies ~rng =
  b.lat <- Samples.create ();
  b.gaps <- Samples.create ();
  b.completed <- 0;
  b.probes <- [];
  let id0 = Ivec.length b.due in
  let t0 = Engine.now e in
  (* Poisson arrivals: fixed spacing would lock the due times to one
     phase of the decision rotation per seed *)
  let next_due = ref t0 in
  let arrival () =
    let gap = -.log (1.0 -. Random.State.float rng 1.0) /. rate in
    next_due := Time.add !next_due (Time.of_sec_f gap)
  in
  arrival ();
  let ev0 = events e and gc0 = gc_mark () and cpu0 = cpu_s () in
  let spans0 = !Trace.spans_us in
  let w0 = Unix.gettimeofday () in
  let horizon = ref t0 in
  let sim_end = Time.add t0 (Time.of_sec_f (sim_per_wall *. seconds)) in
  while Time.compare !horizon sim_end < 0 do
    let until = Time.add !horizon chunk in
    while Time.compare !next_due until < 0 do
      let due = !next_due in
      let id = Ivec.length b.due in
      Ivec.push b.due due;
      Ivec.push b.got 0;
      Ivec.push b.seen_lo 0;
      Ivec.push b.seen_hi 0;
      Engine.inject_at e due
        (Proc_id.of_int (id mod n))
        (Member.submit ~semantics:Broadcast.Semantics.total_strong
           { id; body = bodies.(id mod Array.length bodies) });
      arrival ()
    done;
    for _ = 1 to probes_per_chunk do
      let probe = Time.add !horizon (Random.State.int rng (Time.to_us chunk)) in
      Engine.at e probe (fun () -> b.probes <- probe :: b.probes)
    done;
    Engine.run e ~until;
    horizon := until
  done;
  let submitted = Ivec.length b.due - id0 in
  while b.completed < submitted && Time.compare !horizon (Time.add sim_end drain_timeout) < 0 do
    horizon := Time.add !horizon chunk;
    Engine.run e ~until:!horizon
  done;
  {
    sim_s = Time.to_sec_f (Time.sub sim_end t0);
    wall_s = Unix.gettimeofday () -. w0;
    cpu_s = cpu_s () -. cpu0;
    gc0;
    gc1 = gc_mark ();
    ev0;
    ev1 = events e;
    spans_us = !Trace.spans_us -. spans0;
    submitted;
    completed = b.completed;
    lat = b.lat;
    gaps = b.gaps;
  }

let check (e : engine) (b : book) ~failed =
  let v = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let st = states e in
  if List.length st <> n then fail "%d of %d members up at the end" (List.length st) n;
  (match st with
  | (_, s0) :: rest ->
    let a0 = Member.app s0 in
    List.iter
      (fun (p, s) ->
        let a = Member.app s in
        if a.count <> a0.count || a.digest <> a0.digest then
          fail "digest of p%d (%d updates, %x) differs from p0's (%d, %x)"
            (Proc_id.to_int p) a.count a.digest a0.count a0.digest)
      rest
  | [] -> ());
  if b.dups > 0 then fail "%d duplicate deliveries" b.dups;
  if failed > 0 then fail "%d updates not delivered at all members" failed;
  if b.views > 0 then fail "%d views installed after formation" b.views;
  List.iter
    (fun x -> fail "invariant: %s" (Fmt.str "%a" Invariant.pp_violation x))
    (Invariant.check_all ~n st);
  List.rev !v

let e2e w ~setup_times =
  [
    m "deliver_p50_ms" (Samples.median w.lat) "ms";
    m "deliver_p99_ms" (Samples.quantile w.lat 0.99) "ms";
    m "cpu_us_per_update" (w.cpu_s *. 1e6 /. float_of_int (max 1 w.completed)) "us";
    m "service_gap_ms" (Samples.median w.gaps) "ms";
    m "heap_top_mb" (heap_top_mb ()) "MB";
    m "setup_s" (median_of setup_times) "s";
  ]

let per_layer (b : book) w ~untraced =
  let e = e2e w ~setup_times:[ 0.0 ] in
  let value name l = (List.find (fun x -> x.name = name) l).value in
  let updates = float_of_int (max 1 w.completed) in
  let events = float_of_int (max 1 (total w.ev1 - total w.ev0)) in
  let ev k =
    Option.value ~default:0 (Hashtbl.find_opt w.ev1 k)
    - Option.value ~default:0 (Hashtbl.find_opt w.ev0 k)
  in
  List.concat
    [
      List.map
        (fun k -> m ("member.step_us." ^ k) (Trace.mean ("member.step_us." ^ k)) "us")
        event_kinds;
      [ m "member.timer_us" (Trace.mean "member.timer_us") "us" ];
      List.map
        (fun k -> m ("tasim.events." ^ k) (float_of_int (ev k) /. w.sim_s) "1/sim-s")
        event_kinds;
      [
        m "tasim.events_per_s" (events /. w.wall_s) "1/s";
        m "gc.minor_words_per_event" ((w.gc1.minor -. w.gc0.minor) /. events) "words";
        m "gc.minor_words_per_update" ((w.gc1.minor -. w.gc0.minor) /. updates) "words";
        m "gc.promoted_words_per_update"
          ((w.gc1.promoted -. w.gc0.promoted) /. updates)
          "words";
        m "gc.major_collections" (float_of_int (w.gc1.majors - w.gc0.majors)) "count";
        m "member.views_after_formation" (float_of_int b.views) "count";
        m "member.suspicions" (float_of_int b.suspicions) "count";
        m "member.late_rejected" (float_of_int b.late) "count";
        m "member.decider_handovers" (float_of_int b.handovers) "count";
        m "runtime.other_cpu_ms" ((w.cpu_s *. 1e3) -. (w.spans_us /. 1e3)) "ms";
        m "trace.overhead_deliver_p50_ms"
          (value "deliver_p50_ms" e -. value "deliver_p50_ms" untraced)
          "ms";
        m "trace.overhead_cpu_us_per_update"
          (value "cpu_us_per_update" e -. value "cpu_us_per_update" untraced)
          "us";
      ];
    ]

let run ~seed ~seconds ~traced =
  let bodies = bodies ~seed ~size:body_size in
  let rec setup k times =
    let s, e, b = build ~seed ~traced in
    if k = 1 then (s :: times, e, b) else setup (k - 1) (s :: times)
  in
  let setup_times, e, b = setup setups [] in
  let window e b ~seconds =
    run_window e b ~seconds ~bodies ~rng:(Random.State.make [| seed |])
  in
  let runs, metrics, notes =
    if not traced then begin
      let w = window e b ~seconds in
      ([ (e, b, w) ], e2e w ~setup_times, [])
    end
    else begin
      (* Member state grows over a run, so a second half would cost more
         than the first. The untraced and the traced half run the same
         simulated work instead, on two engines built from the seed. *)
      Trace.on := false;
      let wa = window e b ~seconds:(seconds /. 2.0) in
      let untraced = e2e wa ~setup_times in
      let _, e', b' = build ~seed ~traced in
      Trace.reset ();
      Trace.on := true;
      let wb = window e' b' ~seconds:(seconds /. 2.0) in
      Trace.on := false;
      ([ (e, b, wa); (e', b', wb) ], per_layer b' wb ~untraced, e2e wb ~setup_times)
    end
  in
  let attempted = List.fold_left (fun acc (_, _, w) -> acc + w.submitted) 0 runs in
  let failed_in w = w.submitted - w.completed in
  let failed = List.fold_left (fun acc (_, _, w) -> acc + failed_in w) 0 runs in
  let violations =
    List.concat_map (fun (e, b, w) -> check e b ~failed:(failed_in w)) runs
  in
  let _, _, last = List.nth runs (List.length runs - 1) in
  let notes =
    notes
    @ [
        m "sim_events_per_s"
          (float_of_int (total last.ev1 - total last.ev0) /. last.wall_s)
          "events/s";
        m "samples" (float_of_int (Samples.count last.lat)) "count";
        m "sim_seconds" last.sim_s "s";
      ]
  in
  { correct = violations = [] && attempted > 0; violations; attempted; failed; metrics; notes }
