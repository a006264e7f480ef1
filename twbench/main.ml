(* The timewheel benchmark: one workload per invocation.

     main.exe --workload steady|bulk|failover|sim-n64 --seed N
              --seconds S --trace 0|1

   Prints a stamp, every metric with its unit, and as the last line one
   JSON object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones, measured with no wrapper installed;
   with --trace 1 the layer closures are wrapped and the metrics are
   the per-layer ones. Exits 1 when a correctness check fails, 2 on bad
   arguments, 3 when a live member cannot bind its port. See README.md
   for why the workloads look as they do. *)

open Common

let live_specs =
  [
    {
      Live_load.name = "steady";
      rate = 100.0;
      poisson = true;
      body_size = 64;
      kills = false;
    };
    (* well under the throughput knee (about 450/s): at 250/s and above a
       late rejection tipped some runs into a view change; README.md has
       the sweep *)
    {
      Live_load.name = "bulk";
      rate = 150.0;
      poisson = true;
      body_size = 1024;
      kills = false;
    };
    (* evenly spaced: with Poisson arrivals the number of updates caught
       by each kill varied, and p99 with it *)
    {
      Live_load.name = "failover";
      rate = 100.0;
      poisson = false;
      body_size = 64;
      kills = true;
    };
  ]

(* Every per-layer metric, in print order: a traced run prints each one,
   0 where its layer does not run in that workload. *)
let per_layer_names =
  let us = "us" and ms = "ms" and count = "count" and words = "words" in
  List.concat
    [
      List.concat_map
        (fun k -> [ ("codec.encode_us." ^ k, us); ("codec.decode_us." ^ k, us) ])
        Live_load.codec_kinds;
      [
        ("codec.bytes_per_update", "B");
        ("codec.oal_entries_per_decision", count);
        ("transport.frames_per_update", count);
        ("transport.syscalls_per_frame", count);
        ("transport.drops", count);
      ];
      List.map (fun k -> ("member.step_us." ^ k, us)) ("submit" :: Live_load.codec_kinds);
      [
        ("member.timer_us", us);
        ("stage.queue_ms", ms);
        ("stage.order_ms", ms);
        ("stage.deliver_ms", ms);
        ("stage.gap_ms", ms);
        ("member.views_after_formation", count);
        ("member.suspicions", count);
        ("member.late_rejected", count);
        ("member.decider_handovers", count);
        ("member.rejoin_ms", ms);
        ("live_store.persist_us", us);
        ("live_store.persists", count);
        ("gc.minor_words_per_update", words);
        ("gc.promoted_words_per_update", words);
        ("gc.major_collections", count);
        ("gc.minor_words_per_event", words);
        ("runtime.other_cpu_ms", ms);
        ("loadgen.lag_p99_ms", ms);
      ];
      List.map (fun k -> ("tasim.events." ^ k, "1/sim-s")) Sim_load.event_kinds;
      [
        ("tasim.events_per_s", "1/s");
        ("trace.overhead_deliver_p50_ms", ms);
        ("trace.overhead_cpu_us_per_update", us);
      ];
    ]

let complete_per_layer metrics =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name per_layer_names) then
        failwith ("per-layer metric missing from the list: " ^ x.name))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) metrics with
      | Some x -> x
      | None -> m name 0.0 unit_)
    per_layer_names

let usage () =
  prerr_endline
    "usage: main.exe --workload steady|bulk|failover|sim-n64 --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  let seed = int_of "seed" in
  let seconds = float_of_int (int_of "seconds") in
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds <= 0.0 then usage ();
  let path, outcome =
    try
      match workload with
      | "sim-n64" -> ("simulated", Sim_load.run ~seed ~seconds ~traced)
      | name -> (
        match List.find_opt (fun s -> s.Live_load.name = name) live_specs with
        | None -> usage ()
        | Some spec ->
          let batched, o = Live_load.run spec ~seed ~seconds ~traced in
          ((if batched then "batched" else "fallback"), o))
    with Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "twbench: %s(%s): %s (live members bind UDP ports %d-%d)\n"
        fn arg (Unix.error_message e) Live_load.base_port
        (Live_load.base_port + Live_load.n - 1);
      exit 3
  in
  Printf.printf
    "twbench workload=%s seed=%d seconds=%g trace=%b rev=%s nproc=%d ocaml=%s \
     transport=%s\n"
    workload seed seconds traced (git_rev ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version path;
  let outcome =
    if traced then { outcome with metrics = complete_per_layer outcome.metrics }
    else outcome
  in
  print_outcome ~workload outcome;
  exit (if outcome.correct then 0 else 1)
