open Tasim
open Timewheel

type result = {
  n : int;
  formed : bool;
  form_sim_seconds : float;
  form_wall_seconds : float;
  sim_seconds : float;
  wall_seconds : float;
  receives : int;
  receives_per_member_per_sec : float;
  false_suspicions : int;
  events : int;
  events_per_sec : float;
  minor_words_per_event : float;
}

let run ?(n = 256) ?(seconds = 3) ?(seed = 42) () =
  let params = Params.make ~pacing:Paced ~n () in
  let svc = Run.service ~seed ~params ~n () in
  (* the run is faultless, so every suspicion observed is a false one *)
  let suspicions = ref 0 in
  Service.on_obs svc (fun _at _proc obs ->
      match obs with
      | Member.Suspected _ -> incr suspicions
      | _ -> ());
  let w0 = Unix.gettimeofday () in
  let formed = match Run.settle svc with _ -> true | exception Failure _ -> false in
  let form_wall = Unix.gettimeofday () -. w0 in
  let form_sim = Time.to_sec_f (Service.now svc) in
  if not formed then
    {
      n;
      formed;
      form_sim_seconds = form_sim;
      form_wall_seconds = form_wall;
      sim_seconds = 0.0;
      wall_seconds = 0.0;
      receives = 0;
      receives_per_member_per_sec = 0.0;
      false_suspicions = !suspicions;
      events = 0;
      events_per_sec = 0.0;
      minor_words_per_event = 0.0;
    }
  else begin
    let before = Run.counters_snapshot svc in
    let until = Time.add (Service.now svc) (Time.of_sec seconds) in
    Gc.minor ();
    let m0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Service.run svc ~until;
    let wall = Unix.gettimeofday () -. t0 in
    let m1 = Gc.minor_words () in
    let diff = Run.counters_diff ~before ~after:(Run.counters_snapshot svc) in
    let sends = Run.sum_prefixed diff ~prefixes:[ "sent:" ] in
    let receives = Run.sum_prefixed diff ~prefixes:[ "delivered:" ] in
    let events = sends + receives in
    {
      n;
      formed;
      form_sim_seconds = form_sim;
      form_wall_seconds = form_wall;
      sim_seconds = float_of_int seconds;
      wall_seconds = wall;
      receives;
      receives_per_member_per_sec =
        float_of_int receives /. float_of_int n /. float_of_int seconds;
      false_suspicions = !suspicions;
      events;
      events_per_sec = (if wall > 0.0 then float_of_int events /. wall else 0.0);
      minor_words_per_event =
        (if events > 0 then (m1 -. m0) /. float_of_int events else 0.0);
    }
  end
