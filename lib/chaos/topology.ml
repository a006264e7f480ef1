(* Topology-shaped chaos scenarios over the timeliness graph. See the
   .mli for the catalogue; each scenario derives its per-seed shape
   (which link, which datacenter, which churners) from one Rng stream,
   so a (scenario, seed) pair pins a run exactly. *)

open Tasim
open Timewheel

type scenario = {
  name : string;
  n : int;
  params : Params.t option;
  describe : string;
  plan : seed:int -> Plan.t;
}

(* ------------------------------------------------------------------ *)
(* scenario catalogue *)

(* [delta] = 10ms and the global delay band is [1ms, 8ms]; a "slow"
   link lives at [8ms, 10ms] with performance failures on top, which
   is timely enough to escape the partition logic and late enough to
   trip fail-aware rejection. *)

let distinct rng ~n ~avoid =
  let rec draw () =
    let p = Rng.int rng n in
    if List.mem p avoid then draw () else p
  in
  draw ()

(* One direction of one link degraded for two seconds while the
   reverse stays timely, with a mid-window crash of a third process so
   a view change must cross the slow link. Lifeguard's slow-processing
   observation, applied to a link instead of a member. *)
let asym_slow_link =
  let n = 5 in
  let plan ~seed =
    let rng = Rng.create seed in
    let a = Rng.int rng n in
    let b = distinct rng ~n ~avoid:[ a ] in
    let c = distinct rng ~n ~avoid:[ a; b ] in
    {
      Plan.seed;
      n;
      ops =
        [
          Plan.Link_window
            {
              at = Time.of_ms 200;
              until = Time.of_ms 2200;
              src = Some a;
              dst = Some b;
              delay_min = Time.of_ms 8;
              delay_max = Time.of_ms 10;
              omission_prob = 0.05;
              late_prob = 0.4;
              late_delay_max = Time.of_ms 30;
            };
          Plan.Crash { at = Time.of_ms 1000; proc = c };
          Plan.Recover { at = Time.of_ms 2600; proc = c };
        ];
    }
  in
  {
    name = "asym-slow-link";
    n;
    params = None;
    describe = "one directed link at the delta edge, reverse timely";
    plan;
  }

(* Three 2-member datacenters: every cross-DC directed link carries
   correlated extra latency and lateness, then one DC drops off the
   WAN for 800ms and comes back. *)
let multi_dc =
  let n = 6 in
  let dc p = p / 2 in
  let plan ~seed =
    let rng = Rng.create seed in
    let isolated = Rng.int rng 3 in
    let cross_links =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun d ->
              if dc s = dc d then None
              else
                Some
                  (Plan.Link_window
                     {
                       at = Time.of_ms 100;
                       until = Time.of_ms 3000;
                       src = Some s;
                       dst = Some d;
                       delay_min = Time.of_ms 5;
                       delay_max = Time.of_ms 9;
                       omission_prob = 0.02;
                       late_prob = 0.2;
                       late_delay_max = Time.of_ms 25;
                     }))
            (List.init n Fun.id))
        (List.init n Fun.id)
    in
    let block = [ 2 * isolated; (2 * isolated) + 1 ] in
    {
      Plan.seed;
      n;
      ops =
        cross_links
        @ [
            Plan.Partition { at = Time.of_ms 1000; block };
            Plan.Heal { at = Time.of_ms 1800 };
          ];
    }
  in
  {
    name = "multi-dc";
    n;
    params = None;
    describe = "3x2 datacenters, slow WAN links, one DC partitions off";
    plan;
  }

(* Every link of the team pushed toward the fail-aware bounds at once:
   delays just under delta, a large late fraction whose delays
   straddle late_bound = delta + epsilon + sigma = 13ms, and slow
   scheduling eating into sigma. The scenario where fail-awareness
   (late rejection) does all the work. *)
let drift_storm =
  let n = 5 in
  let plan ~seed =
    let rng = Rng.create seed in
    let late_prob = 0.25 +. (0.25 *. Rng.float rng) in
    let late_delay_max = Rng.uniform_time rng (Time.of_ms 16) (Time.of_ms 30) in
    {
      Plan.seed;
      n;
      ops =
        [
          Plan.Link_window
            {
              at = Time.of_ms 200;
              until = Time.of_ms 2700;
              src = None;
              dst = None;
              delay_min = Time.of_ms 7;
              delay_max = Time.of_ms 10;
              omission_prob = 0.02;
              late_prob;
              late_delay_max;
            };
          Plan.Slow_window
            {
              at = Time.of_ms 200;
              until = Time.of_ms 2700;
              prob = 0.3;
              delay_max = Time.of_ms 3;
            };
        ];
    }
  in
  {
    name = "drift-storm";
    n;
    params = None;
    describe = "all links near delta, lateness straddling late_bound";
    plan;
  }

(* Sustained churn at N=64 under adaptive suspicion: three members
   leave and rejoin on overlapping windows while every decision goes to
   all members. *)
let churn_64 =
  let n = 64 in
  let params = Params.make ~n ~adaptive_suspicion:true () in
  let plan ~seed =
    let rng = Rng.create seed in
    let p1 = Rng.int rng n in
    let p2 = distinct rng ~n ~avoid:[ p1 ] in
    let p3 = distinct rng ~n ~avoid:[ p1; p2 ] in
    {
      Plan.seed;
      n;
      ops =
        [
          Plan.Crash { at = Time.of_ms 300; proc = p1 };
          Plan.Crash { at = Time.of_ms 900; proc = p2 };
          Plan.Recover { at = Time.of_ms 1600; proc = p1 };
          Plan.Crash { at = Time.of_ms 2200; proc = p3 };
          Plan.Recover { at = Time.of_ms 2900; proc = p2 };
          Plan.Recover { at = Time.of_ms 3500; proc = p3 };
        ];
    }
  in
  {
    name = "churn-64";
    n;
    params = Some params;
    describe = "N=64 adaptive suspicion, 3 overlapping leave/rejoins";
    plan;
  }

let scenarios = [ asym_slow_link; multi_dc; drift_storm; churn_64 ]
let find name = List.find_opt (fun s -> s.name = name) scenarios

(* ------------------------------------------------------------------ *)
(* sweeping and convergence distributions *)

type failure = { seed : int; plan : Plan.t; outcome : Runner.outcome }

type report = {
  scenario : scenario;
  root_seed : int;
  runs : int;
  failures : failure list;
  formation : Stats.summary option;
  reconvergence : Stats.summary option;
}

let seconds times =
  Stats.summarize (Array.of_list (List.map Time.to_sec_f times))

let run_one scenario ~seed = Runner.run ?params:scenario.params (scenario.plan ~seed)

let sweep ?(runs = 5) ~seed (scenario : scenario) =
  let failures = ref [] in
  let formed = ref [] in
  let reconverged = ref [] in
  List.iter
    (fun run_seed ->
      let plan = scenario.plan ~seed:run_seed in
      let outcome = Runner.run ?params:scenario.params plan in
      if Runner.ok outcome then begin
        formed := outcome.Runner.formed_in :: !formed;
        match outcome.Runner.reconverged_in with
        | Some t -> reconverged := t :: !reconverged
        | None -> ()
      end
      else failures := { seed = run_seed; plan; outcome } :: !failures)
    (Runner.seeds ~seed ~count:runs);
  {
    scenario;
    root_seed = seed;
    runs;
    failures = List.rev !failures;
    formation = seconds !formed;
    reconvergence = seconds !reconverged;
  }

let ok report = report.failures = []

let minimize scenario plan = Runner.minimize ?params:scenario.params plan

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>seed %d:@,%a@,%a@]" f.seed Plan.pp f.plan
    Fmt.(vbox (list Runner.pp_violation))
    f.outcome.Runner.violations

let pp_report ppf r =
  let pp_opt name ppf = function
    | None -> Fmt.pf ppf "%s: (no samples)" name
    | Some d -> Fmt.pf ppf "%s (s): %a" name Stats.pp_summary d
  in
  Fmt.pf ppf "@[<v>topology %s (n=%d, root seed %d, %d runs): %s@,%a@,%a%a@]"
    r.scenario.name r.scenario.n r.root_seed r.runs
    (if r.failures = [] then "clean"
     else Fmt.str "%d FAILING run(s)" (List.length r.failures))
    (pp_opt "formation") r.formation (pp_opt "reconvergence") r.reconvergence
    (fun ppf -> function
      | [] -> ()
      | fs -> Fmt.pf ppf "@,%a" Fmt.(vbox (list pp_failure)) fs)
    r.failures
