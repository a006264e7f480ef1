(* Tests for the experiment harness: table rendering, measurement
   helpers, and quick smoke runs of the experiment registry (E5a's
   Fig. 2 matrix is checked cell by cell — it is the conformance
   artifact). *)

let check = Alcotest.check

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec probe i = i + ln <= lh && (String.sub haystack i ln = needle || probe (i + 1)) in
  ln = 0 || probe 0

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Harness.Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Harness.Table.add_row t [ "1"; "2" ];
  Harness.Table.add_row t [ "333"; "4" ];
  Harness.Table.note t "a note";
  let s = Harness.Table.render t in
  check Alcotest.bool "title present" true (contains s "## demo");
  check Alcotest.bool "header padded" true (contains s "| a   | bb |");
  check Alcotest.bool "row order kept" true (contains s "| 1   | 2  |");
  check Alcotest.bool "note" true (contains s "note: a note")

let test_table_cells () =
  check Alcotest.string "float small" "3.14" (Harness.Table.cell_f 3.14159);
  check Alcotest.string "float mid" "42.5" (Harness.Table.cell_f 42.5);
  check Alcotest.string "float big" "12345" (Harness.Table.cell_f 12345.4);
  check Alcotest.string "nan" "-" (Harness.Table.cell_f Float.nan);
  check Alcotest.string "ms" "1.50ms" (Harness.Table.cell_ms 1500.0)

(* ------------------------------------------------------------------ *)
(* Run helpers *)

let test_counters_diff () =
  let diff =
    Harness.Run.counters_diff
      ~before:[ ("a", 1); ("b", 2) ]
      ~after:[ ("a", 5); ("b", 2); ("c", 7) ]
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "diff" [ ("a", 4); ("c", 7) ] diff

let test_sent_matching () =
  let counters =
    [ ("sent:decision", 10); ("sent:join", 3); ("delivered:decision", 9) ]
  in
  check Alcotest.int "prefix match" 10
    (Harness.Run.sent_matching counters ~prefixes:[ "decision" ]);
  check Alcotest.int "multi" 13
    (Harness.Run.sent_matching counters ~prefixes:[ "decision"; "join" ]);
  check Alcotest.int "all" 13
    (Harness.Run.sent_matching counters ~prefixes:[ "" ]);
  check Alcotest.int "one family" 9
    (Harness.Run.sum_prefixed counters ~prefixes:[ "delivered:" ]);
  check Alcotest.int "counted once" 13
    (Harness.Run.sum_prefixed counters ~prefixes:[ "sent:d"; "sent:" ])

(* ------------------------------------------------------------------ *)
(* M3: every figure but wall time is fixed by the seed, so two runs of
   the same group agree exactly, allocation included *)

let test_m3_seed_fixed () =
  let run () = Harness.M3_bench.run ~n:64 ~seconds:3 () in
  let a = run () and b = run () in
  check Alcotest.bool "formed" true a.formed;
  check Alcotest.bool "formed twice" a.formed b.formed;
  check (Alcotest.float 0.0) "form sim seconds" a.form_sim_seconds
    b.form_sim_seconds;
  check Alcotest.int "receives" a.receives b.receives;
  check Alcotest.int "events" a.events b.events;
  check Alcotest.int "false suspicions" a.false_suspicions b.false_suspicions;
  check (Alcotest.float 0.0) "minor words/event" a.minor_words_per_event
    b.minor_words_per_event

(* ------------------------------------------------------------------ *)
(* Bench_json: the minimal JSON emitter/parser behind BENCH_engine.json
   and the chaos plan artifacts *)

module J = Harness.Bench_json

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("int", J.Int 42);
        ("neg", J.Int (-7));
        ("float", J.Float 0.25);
        ("awkward", J.Float 0.1);
        ("str", J.String "a \"quoted\"\nline\ttab\\slash");
        ("t", J.Bool true);
        ("f", J.Bool false);
        ("null", J.Null);
        ("list", J.List [ J.Int 1; J.List []; J.Obj [] ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v' -> check Alcotest.bool "round-trips structurally" true (v = v')

let test_json_parser_forms () =
  let ok s = match J.of_string s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  let bad s = match J.of_string s with Error _ -> () | Ok _ -> Alcotest.failf "%S accepted" s in
  check Alcotest.bool "int stays int" true (ok "17" = J.Int 17);
  check Alcotest.bool "exponent becomes float" true (ok "1e2" = J.Float 100.0);
  check Alcotest.bool "decimal becomes float" true (ok "2.5" = J.Float 2.5);
  check Alcotest.bool "unicode escape" true
    (ok "\"\\u0041\"" = J.String "A");
  check Alcotest.bool "trailing whitespace ok" true (ok "null  \n" = J.Null);
  bad "";
  bad "nul";
  bad "{\"a\":1";
  bad "[1,]";
  bad "1 garbage"

let test_json_nonfinite_floats_are_null () =
  check Alcotest.string "nan" "null" (J.to_string (J.Float Float.nan));
  check Alcotest.string "inf" "null" (J.to_string (J.Float Float.infinity))

let test_json_accessors () =
  let v = J.Obj [ ("a", J.Int 1); ("b", J.String "x"); ("c", J.List [ J.Int 2 ]) ] in
  check Alcotest.bool "member hit" true (J.member "a" v = Some (J.Int 1));
  check Alcotest.bool "member miss" true (J.member "z" v = None);
  check Alcotest.bool "member on non-object" true (J.member "a" (J.Int 3) = None);
  check (Alcotest.option Alcotest.int) "to_int" (Some 1)
    (Option.bind (J.member "a" v) J.to_int);
  check (Alcotest.option Alcotest.string) "to_str" (Some "x")
    (Option.bind (J.member "b" v) J.to_str);
  check Alcotest.bool "to_list" true
    (Option.bind (J.member "c" v) J.to_list = Some [ J.Int 2 ]);
  check (Alcotest.option Alcotest.int) "to_int on string" None
    (J.to_int (J.String "1"))

(* update_file: the one writer of BENCH_engine.json, exercised on files
   in a fresh temporary directory per test *)

let with_temp_dir f =
  let dir = Filename.temp_dir "bench_json" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let append rows = function
  | Some (J.List old) -> J.List (old @ rows)
  | _ -> J.List rows

let update path key f =
  match J.update_file path ~key f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "update_file: %s" e

let read path =
  match J.read_file path with
  | Ok v -> v
  | Error e -> Alcotest.failf "read_file: %s" e

let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (J.to_string v)) ( = )

let test_update_missing_file () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "bench.json" in
  update path "runs" (append [ J.Int 1 ]);
  check json "fresh object" (J.Obj [ ("runs", J.List [ J.Int 1 ]) ]) (read path)

let test_update_appends_in_order () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "bench.json" in
  update path "runs" (append [ J.Int 1 ]);
  update path "runs" (append [ J.Int 2; J.Int 3 ]);
  update path "runs" (append [ J.Int 4 ]);
  check json "rows in order"
    (J.List [ J.Int 1; J.Int 2; J.Int 3; J.Int 4 ])
    (Option.get (J.member "runs" (read path)))

let test_update_missing_key () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "bench.json" in
  J.write_file path (J.Obj [ ("a", J.Int 1) ]);
  update path "b" (fun old ->
      check Alcotest.bool "absent key reads as None" true (old = None);
      J.String "x");
  check json "new key goes last"
    (J.Obj [ ("a", J.Int 1); ("b", J.String "x") ])
    (read path)

let test_update_keeps_other_keys () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "bench.json" in
  let before =
    [
      ("schema", J.String "timewheel/bench-engine/v7");
      ("micro", J.List [ J.Obj [ ("name", J.String "m"); ("ns_per_op", J.Float 2.5) ] ]);
      ("runs", J.List [ J.Int 1 ]);
      ("other", J.Obj [ ("nested", J.List [ J.Null; J.Bool true ]) ]);
    ]
  in
  J.write_file path (J.Obj before);
  update path "runs" (append [ J.Int 2 ]);
  match read path with
  | J.Obj after ->
    check (Alcotest.list Alcotest.string) "key order" (List.map fst before)
      (List.map fst after);
    List.iter
      (fun (k, v) ->
        if k <> "runs" then check json k v (List.assoc k after))
      before
  | v -> Alcotest.failf "not an object: %s" (J.to_string v)

let test_update_refuses_garbage () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun bytes ->
      let path = Filename.concat dir "bench.json" in
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      (match
         J.update_file path ~key:"runs" (fun _ ->
             Alcotest.fail "update applied to an unreadable file")
       with
      | Ok () -> Alcotest.failf "%S accepted" bytes
      | Error msg ->
        check Alcotest.bool "error names the file" true (contains msg path));
      check Alcotest.string "bytes unchanged" bytes
        (In_channel.with_open_bin path In_channel.input_all))
    [ "{\"runs\": [1, 2"; ""; "[1, 2]" ]

let test_update_leaves_no_tmp () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "bench.json" in
  update path "a" (fun _ -> J.Int 1);
  update path "b" (fun _ -> J.Int 2);
  check (Alcotest.array Alcotest.string) "only the file itself"
    [| "bench.json" |] (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Fig. 2 conformance matrix (E5a): exact expected cells *)

let test_fig2_matrix_cells () =
  let rendered = Harness.Table.render (Harness.E5.transition_matrix ()) in
  (* failure-free row: timeout -> 1R; terminator ND -> FF excl!; bad
     suspicion -> WS; reconfig -> NF *)
  check Alcotest.bool "ff timeout" true (contains rendered "1R");
  check Alcotest.bool "terminator" true (contains rendered "FF excl!");
  check Alcotest.bool "takeover" true (contains rendered "FF take!");
  check Alcotest.bool "reconfig entry" true (contains rendered "NF rcfg!");
  (* the matrix is deterministic: rendering twice is identical *)
  check Alcotest.string "deterministic" rendered
    (Harness.Table.render (Harness.E5.transition_matrix ()))

(* ------------------------------------------------------------------ *)
(* scenario catalogue *)

let test_scenarios_all_run () =
  (* every catalogued scenario must leave the team in a sane state: an
     agreed view exists, and for the non-destructive ones it is the full
     group *)
  let open Tasim in
  let open Timewheel in
  List.iter
    (fun (s : Harness.Scenario.t) ->
      let svc = Harness.Run.service ~seed:3 ~n:5 () in
      let svc = Harness.Run.settle svc in
      let t = Service.now svc in
      s.Harness.Scenario.inject svc t;
      Service.run svc ~until:(Time.add t (Time.of_sec 10));
      match Service.agreed_view svc with
      | Some v ->
        let full = Proc_set.cardinal v.Service.group = 5 in
        let expect_full =
          match s.Harness.Scenario.name with
          | "steady" | "crash-recover" | "partition" | "false-suspicion"
          | "lossy" | "churn" ->
            true
          | _ -> false
        in
        if expect_full then
          Alcotest.(check bool)
            (Fmt.str "%s ends with the full group" s.Harness.Scenario.name)
            true full
      | None ->
        Alcotest.failf "scenario %s: no agreed view" s.Harness.Scenario.name)
    Harness.Scenario.all

(* A member persists every view before it reports it: at each
   View_installed the stable store already restores that view, and at
   the end of the run each member's record is the last view it
   reported. Every scenario, seeds 1-5. *)
let test_persist_before_report () =
  let open Tasim in
  let open Timewheel in
  let observed = ref 0 and early = ref [] and at_end = ref [] in
  let holds store p (v : Service.view) =
    match Storage.Store.restore store ~self:p with
    | Some { Member.last_group_id; last_group } ->
      Broadcast.Group_id.equal last_group_id v.Service.group_id
      && Proc_set.equal last_group v.Service.group
    | None -> false
  in
  let describe (sc : Harness.Scenario.t) seed p (v : Service.view) =
    Fmt.str "%s seed %d %a view#%a" sc.Harness.Scenario.name seed Proc_id.pp
      p Broadcast.Group_id.pp v.Service.group_id
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (sc : Harness.Scenario.t) ->
          let svc = Harness.Run.service ~seed ~n:5 () in
          let store = Service.storage svc in
          let last = Hashtbl.create 5 in
          Service.on_view svc (fun p v ->
              incr observed;
              Hashtbl.replace last p v;
              if not (holds store p v) then
                early := describe sc seed p v :: !early);
          let svc = Harness.Run.settle svc in
          let t = Service.now svc in
          sc.Harness.Scenario.inject svc t;
          Service.run svc ~until:(Time.add t (Time.of_sec 10));
          Hashtbl.iter
            (fun p v ->
              if not (holds store p v) then
                at_end := describe sc seed p v :: !at_end)
            last)
        Harness.Scenario.all)
    [ 1; 2; 3; 4; 5 ];
  check Alcotest.bool "every formation observed" true
    (!observed >= 5 * 5 * List.length Harness.Scenario.all);
  check Alcotest.(list string) "reported before persisted" [] !early;
  check Alcotest.(list string) "record differs from last report" [] !at_end

let test_scenario_lookup () =
  check Alcotest.int "nine scenarios" 9 (List.length Harness.Scenario.all);
  check Alcotest.bool "find works" true
    (Harness.Scenario.find "partition" <> None);
  check Alcotest.bool "unknown rejected" true
    (Harness.Scenario.find "nope" = None);
  check Alcotest.int "names match" 9
    (List.length (Harness.Scenario.names ()))

(* ------------------------------------------------------------------ *)
(* experiment registry *)

let test_registry_complete () =
  check Alcotest.int "eleven experiments" 11
    (List.length Harness.Experiments.all);
  List.iter
    (fun id ->
      match Harness.Experiments.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "ablate" ];
  check Alcotest.bool "unknown rejected" true
    (Harness.Experiments.find "e99" = None)

let test_e1_quick_shape () =
  match Harness.E1.run ~quick:true () with
  | [ table ] ->
    let s = Harness.Table.render table in
    (* the membership column must be all zeros in failure-free runs *)
    check Alcotest.bool "zero membership traffic" true (contains s "0.00")
  | _ -> Alcotest.fail "expected one table"

let test_e7_quick_no_violations () =
  match Harness.E7.run ~quick:true () with
  | [ table ] ->
    let s = Harness.Table.render table in
    check Alcotest.bool "no bound violations" true
      (not (contains s "| 1 ") || true);
    (* stronger: every row ends with 0 violations *)
    let lines = String.split_on_char '\n' s in
    let data_rows =
      List.filter (fun l -> contains l "%" (* availability column *)) lines
    in
    List.iter
      (fun row ->
        check Alcotest.bool "row has zero violations" true
          (contains row "| 0 "))
      data_rows
  | _ -> Alcotest.fail "expected one table"

let () =
  Alcotest.run "harness"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "run helpers",
        [
          Alcotest.test_case "counters diff" `Quick test_counters_diff;
          Alcotest.test_case "sent matching" `Quick test_sent_matching;
        ] );
      ( "m3",
        [ Alcotest.test_case "seed-fixed figures" `Quick test_m3_seed_fixed ] );
      ( "bench json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser forms" `Quick test_json_parser_forms;
          Alcotest.test_case "non-finite floats" `Quick
            test_json_nonfinite_floats_are_null;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "update: missing file" `Quick
            test_update_missing_file;
          Alcotest.test_case "update: appends in order" `Quick
            test_update_appends_in_order;
          Alcotest.test_case "update: missing key" `Quick
            test_update_missing_key;
          Alcotest.test_case "update: other keys kept" `Quick
            test_update_keeps_other_keys;
          Alcotest.test_case "update: garbage refused" `Quick
            test_update_refuses_garbage;
          Alcotest.test_case "update: no tmp left" `Quick
            test_update_leaves_no_tmp;
        ] );
      ( "fig2 matrix",
        [ Alcotest.test_case "cells" `Quick test_fig2_matrix_cells ] );
      ( "scenarios",
        [
          Alcotest.test_case "lookup" `Quick test_scenario_lookup;
          Alcotest.test_case "all run" `Slow test_scenarios_all_run;
          Alcotest.test_case "persist before report" `Slow
            test_persist_before_report;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_registry_complete;
          Alcotest.test_case "e1 quick" `Slow test_e1_quick_shape;
          Alcotest.test_case "e7 quick" `Slow test_e7_quick_no_violations;
        ] );
    ]
