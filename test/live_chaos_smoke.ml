(* Live-chaos smoke: one fixed-seed run of every scenario in the
   Chaos.Live catalogue, against real UDP sockets on localhost.

   This is the CI gate for the live chaos harness (alias
   @live-chaos-smoke): kill/restart churn, the storage fault palette
   on a real directory, an impaired link ridden through a restart, and
   a paused (SIGSTOP-analog) member. A run is a failure iff any
   invariant is violated — agreed-view convergence, the epoch ratchet,
   no false suspicions, group-wide delivery — so a pass means the
   protocol survived every perturbation, not merely that the process
   exited.

   Wall-clock scheduling is not deterministic, but the driver's
   choices (victims, faults, downtimes) are fixed by the seed, and
   every convergence wait has a hard bound, so a hung run fails
   rather than wedging CI. *)

let seed = 7
let base_port = 48400

let () =
  (* fail fast (SKIP) where UDP sockets are unavailable, mirroring
     live_smoke *)
  (match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
  | fd -> Unix.close fd
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "live chaos smoke: SKIP: cannot open UDP sockets (%s)@."
      (Unix.error_message e);
    exit 0);
  let failed = ref 0 in
  List.iteri
    (fun i (sc : Chaos.Live.scenario) ->
      let outcome =
        Chaos.Live.run_one ~base_port:(base_port + (i * 256)) ~seed sc
      in
      Fmt.pr "live chaos smoke: %a@." Chaos.Live.pp_outcome outcome;
      if not (Chaos.Live.ok outcome) then begin
        incr failed;
        List.iter
          (fun v ->
            Fmt.epr "live chaos smoke: FAIL [%s] %a@." sc.Chaos.Live.name
              Chaos.Runner.pp_violation v)
          outcome.Chaos.Live.violations
      end)
    Chaos.Live.scenarios;
  if !failed > 0 then begin
    Fmt.epr "live chaos smoke: FAIL: %d of %d scenarios violated invariants@."
      !failed
      (List.length Chaos.Live.scenarios);
    exit 1
  end;
  Fmt.pr "live chaos smoke: PASS (%d scenarios, seed %d)@."
    (List.length Chaos.Live.scenarios)
    seed
