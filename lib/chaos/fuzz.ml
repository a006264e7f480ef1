type failure = {
  index : int;
  original : Plan.t;
  shrunk : Plan.t;
  outcome : Runner.outcome;
}

type report = {
  seed : int;
  n : int;
  plans : int;
  ops_per_plan : int;
  views_sampled : int;
  failures : failure list;
}

let default_ops = 8

let sweep ?check ?(ops = default_ops) ~seed ~plans ~n () =
  let views = ref 0 in
  let failures = ref [] in
  List.iteri
    (fun index plan_seed ->
      let plan = Plan.generate ~seed:plan_seed ~n ~ops in
      let outcome = Runner.run ?check plan in
      views := !views + outcome.Runner.views_sampled;
      if not (Runner.ok outcome) then begin
        let shrunk = Runner.minimize ?check plan in
        let outcome = Runner.run ?check shrunk in
        failures := { index; original = plan; shrunk; outcome } :: !failures
      end)
    (Runner.seeds ~seed ~count:plans);
  {
    seed;
    n;
    plans;
    ops_per_plan = ops;
    views_sampled = !views;
    failures = List.rev !failures;
  }

let ok report = report.failures = []

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>plan #%d: %d ops, shrunk to %d@,%a@,%a@]" f.index
    (List.length f.original.Plan.ops)
    (List.length f.shrunk.Plan.ops)
    Plan.pp f.shrunk
    Fmt.(vbox (list Runner.pp_violation))
    f.outcome.Runner.violations

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>chaos sweep: seed=%d n=%d plans=%d ops/plan=%d invariant \
     samples=%d@,%a@]"
    r.seed r.n r.plans r.ops_per_plan r.views_sampled
    (fun ppf -> function
      | [] -> Fmt.string ppf "all plans passed"
      | fs ->
        Fmt.pf ppf "%d FAILING plan(s):@,%a" (List.length fs)
          Fmt.(vbox (list pp_failure))
          fs)
    r.failures
