open Tasim
open Timewheel

type violation = { at : Time.t; property : string; detail : string }

type outcome = {
  plan : Plan.t;
  violations : violation list;
  views_sampled : int;
  formed_in : Time.t;
  reconverged_in : Time.t option;
}

type check = Harness.Run.svc -> Invariant.violation list

let pp_violation ppf v =
  Fmt.pf ppf "[%a] %s: %s" Time.pp v.at v.property v.detail

let seeds ~seed ~count =
  let root = Rng.create seed in
  List.init count (fun _ -> Rng.int root 1_000_000_000)

let default_check (svc : Harness.Run.svc) =
  let engine = Service.engine svc in
  Invariant.check_all ~n:(Engine.n engine) (Invariant.take engine)

let pid = Proc_id.of_int

(* How long the epilogue waits for re-convergence before declaring a
   violation: generous, because a plan may leave the whole team to
   rebuild through the join protocol from scratch. *)
let convergence_tries = 40

let schedule_op svc ~abs i op =
  let engine = Service.engine svc in
  let net = Engine.net engine in
  match op with
  | Plan.Crash { at; proc } -> Service.crash_at svc (abs at) (pid proc)
  | Plan.Recover { at; proc } -> Service.recover_at svc (abs at) (pid proc)
  | Plan.Partition { at; block } ->
    let n = Engine.n engine in
    let inside = Proc_set.of_list (List.map pid block) in
    let outside = Proc_set.diff (Proc_set.full ~n) inside in
    Service.partition_at svc (abs at) [ inside; outside ]
  | Plan.Heal { at } -> Service.heal_at svc (abs at)
  | Plan.Omission_burst { at; until; prob; seed } ->
    let name = Fmt.str "chaos-burst-%d" i in
    Engine.at engine (abs at) (fun () ->
        let rng = Rng.create seed in
        Net.add_filter net ~name (fun ~src:_ ~dst:_ _ -> Rng.bool rng prob));
    Engine.at engine (abs until) (fun () -> Net.remove_filter net ~name)
  | Plan.Filter_window { at; until; kind; src; dst } ->
    let name = Fmt.str "chaos-drop-%d" i in
    let matches_end want have =
      match want with None -> true | Some x -> Proc_id.to_int have = x
    in
    Engine.at engine (abs at) (fun () ->
        Net.add_filter net ~name (fun ~src:s ~dst:d msg ->
            String.equal (Control_msg.kind msg) kind
            && matches_end src s && matches_end dst d));
    Engine.at engine (abs until) (fun () -> Net.remove_filter net ~name)
  | Plan.Slow_window { at; until; prob; delay_max } ->
    Engine.at engine (abs at) (fun () ->
        Engine.set_slow engine ~slow_prob:prob ~slow_delay_max:delay_max);
    Engine.at engine (abs until) (fun () -> Engine.reset_slow engine)
  | Plan.Slow_member { at; until; proc; prob; delay_max } ->
    Engine.at engine (abs at) (fun () ->
        Engine.set_slow_proc engine ~proc:(pid proc) ~prob ~delay_max);
    Engine.at engine (abs until) (fun () -> Engine.clear_slow_proc engine)
  | Plan.Storage_fault { at; until; proc; fault } ->
    let store = Service.storage svc in
    let proc = Option.map pid proc in
    Engine.at engine (abs at) (fun () ->
        Storage.Store.set_fault store ?proc (Some fault));
    Engine.at engine (abs until) (fun () ->
        Storage.Store.set_fault store ?proc None)
  | Plan.Link_window
      {
        at;
        until;
        src;
        dst;
        delay_min;
        delay_max;
        omission_prob;
        late_prob;
        late_delay_max;
      } ->
    let n = Engine.n engine in
    let matches want x = match want with None -> true | Some w -> w = x in
    let each f =
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d && matches src s && matches dst d then f (pid s) (pid d)
        done
      done
    in
    Engine.at engine (abs at) (fun () ->
        each (fun src dst ->
            Net.set_link net ~src ~dst ~delay_min ~delay_max ~omission_prob
              ~late_prob ~late_delay_max ()));
    (* the close clears the whole directed link, so of two overlapping
       windows on one link the earlier close wins — plans that want
       layering must use disjoint windows *)
    Engine.at engine (abs until) (fun () ->
        each (fun src dst -> Net.clear_link net ~src ~dst))

let run ?params ?probe ?(check = default_check) (plan : Plan.t) =
  let svc = Harness.Run.service ~seed:plan.Plan.seed ?params ~n:plan.Plan.n () in
  (match probe with Some f -> f svc | None -> ());
  let svc = Harness.Run.settle svc in
  let engine = Service.engine svc in
  let base = Service.now svc in
  let abs at = Time.add base at in
  let violations = ref [] in
  let sampled = ref 0 in
  let record vs =
    if vs <> [] && !violations = [] then begin
      violations :=
        List.map
          (fun (v : Invariant.violation) ->
            {
              at = Engine.now engine;
              property = v.Invariant.property;
              detail = v.Invariant.detail;
            })
          vs;
      Engine.stop engine
    end
  in
  Engine.on_observe engine (fun _at _proc obs ->
      match obs with
      | Member.View_installed _ ->
        incr sampled;
        record (check svc)
      | _ -> ());
  List.iteri (fun i op -> schedule_op svc ~abs i op) plan.Plan.ops;
  (* light workload: one totally ordered update per 100ms, submitter
     rotating over the team, so oals keep growing under faults *)
  let stop_t = abs (Time.add (Plan.end_time plan) (Time.of_sec 1)) in
  let rec submit k t =
    if t < stop_t then begin
      Service.submit_at svc t
        (pid (k mod plan.Plan.n))
        ~semantics:Broadcast.Semantics.total_strong k;
      submit (k + 1) (Time.add t (Time.of_ms 100))
    end
  in
  submit 0 base;
  Service.run svc ~until:stop_t;
  (* post-quiescence: remove every fault and require one agreed full
     view, then take a final invariant sample. With stable storage
     there is no waiver: even a plan that crashes every member of the
     newest view leaves their persisted epochs behind, so a recovered
     majority re-forms at a higher epoch and the stragglers rejoin —
     non-convergence is always a violation. *)
  let reconverged_in = ref None in
  if !violations = [] then begin
    let net = Engine.net engine in
    Net.clear_filters net;
    Net.clear_links net;
    Net.heal net;
    Engine.reset_slow engine;
    Engine.clear_slow_proc engine;
    Storage.Store.set_fault (Service.storage svc) None;
    List.iter
      (fun p ->
        if not (Engine.is_up engine p) then
          Engine.recover_at engine (Engine.now engine) p)
      (Proc_id.all ~n:plan.Plan.n);
    let cycle = Params.cycle (Service.params svc) in
    let heal_start = Service.now svc in
    let converged () =
      match Service.agreed_view svc with
      | Some v -> Proc_set.cardinal v.Service.group = plan.Plan.n
      | None -> false
    in
    let rec wait tries =
      Service.run svc ~until:(Time.add (Service.now svc) cycle);
      if !violations <> [] then () (* an invariant broke during re-join *)
      else if converged () then
        (* cycle-granular: the epilogue advances a cycle at a time *)
        reconverged_in := Some (Time.sub (Service.now svc) heal_start)
      else if tries <= 1 then
        violations :=
          [
            {
              at = Service.now svc;
              property = "convergence";
              detail =
                Fmt.str
                  "no agreed full view within %d cycles of healing all faults"
                  convergence_tries;
            };
          ]
      else wait (tries - 1)
    in
    wait convergence_tries;
    if !violations = [] then record (check svc)
  end;
  {
    plan;
    violations = !violations;
    views_sampled = !sampled;
    formed_in = base;
    reconverged_in = !reconverged_in;
  }

let ok outcome = outcome.violations = []

let minimize ?params ?check (plan : Plan.t) =
  let violates ops = not (ok (run ?params ?check { plan with Plan.ops })) in
  let ops = Shrink.minimize ~violates plan.Plan.ops in
  let ops =
    Shrink.shrink_params ~violates ~candidates:Plan.shrink_op ops
  in
  { plan with Plan.ops }
