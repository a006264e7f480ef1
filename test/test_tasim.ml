(* Unit and property tests for the timed asynchronous system simulator. *)

open Tasim

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check Alcotest.int "ms" 1_000 (Time.of_ms 1);
  check Alcotest.int "sec" 1_000_000 (Time.of_sec 1);
  check Alcotest.int "sec_f" 1_500_000 (Time.of_sec_f 1.5);
  check (Alcotest.float 1e-9) "to_ms" 1.5 (Time.to_ms_f 1_500);
  check Alcotest.int "add" 30 (Time.add 10 20);
  check Alcotest.int "sub" (-10) (Time.sub 10 20);
  check Alcotest.int "mul" 60 (Time.mul 20 3);
  check Alcotest.int "div" 10 (Time.div 20 2)

let test_time_scale () =
  check Alcotest.int "identity" 1000 (Time.scale 1000 1.0);
  check Alcotest.int "double" 2000 (Time.scale 1000 2.0);
  check Alcotest.int "rounds" 1000 (Time.scale 999 1.001);
  check Alcotest.int "negative" (-500) (Time.scale (-1000) 0.5)

let test_time_pp () =
  check Alcotest.string "us" "42us" (Time.to_string (Time.of_us 42));
  check Alcotest.string "ms" "1.500ms" (Time.to_string 1_500);
  check Alcotest.string "s" "2.000s" (Time.to_string (Time.of_sec 2));
  check Alcotest.string "inf" "inf" (Time.to_string Time.infinity)

let prop_time_scale_monotone =
  QCheck.Test.make ~name:"Time.scale is monotone for positive factors"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Time.scale lo 1.25 <= Time.scale hi 1.25)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independence () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let x = Rng.int64 b in
  (* drawing more from a must not change b's past *)
  let a' = Rng.create 42 in
  let b' = Rng.split a' in
  ignore (Rng.int64 a');
  check Alcotest.int64 "split stream reproducible" x (Rng.int64 b |> fun _ -> x);
  ignore b'

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a)
    (Rng.int64 b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays within [0, bound)"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"Rng.float in [0,1)" QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.float rng in
        if v < 0.0 || v >= 1.0 then ok := false
      done;
      !ok)

let prop_rng_uniform_time =
  QCheck.Test.make ~name:"Rng.uniform_time within range"
    QCheck.(triple small_int (int_bound 10_000) (int_bound 10_000))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Rng.create seed in
      let v = Rng.uniform_time rng lo hi in
      lo <= v && v <= hi)

let test_rng_exponential_positive () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    if Rng.exponential rng ~mean:5.0 < 0.0 then
      Alcotest.fail "negative exponential draw"
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id)
    sorted

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create () in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  Heap.add h ~time:30 "c";
  Heap.add h ~time:10 "a";
  Heap.add h ~time:20 "b";
  check (Alcotest.option Alcotest.int) "peek" (Some 10) (Heap.peek_time h);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "sorted drain"
    [ (10, "a"); (20, "b"); (30, "c") ]
    (Heap.drain h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~time:5 v) [ "first"; "second"; "third" ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "FIFO among equal times"
    [ (5, "first"); (5, "second"); (5, "third") ]
    (Heap.drain h)

let test_heap_grows () =
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.add h ~time:i i
  done;
  check Alcotest.int "size" 1000 (Heap.size h);
  let popped = Heap.drain h in
  check Alcotest.int "drained" 1000 (List.length popped);
  check Alcotest.bool "sorted" true
    (List.for_all2 (fun (t, v) i -> t = i && v = i) popped
       (List.init 1000 Fun.id))

let test_heap_clear () =
  let h = Heap.create () in
  Heap.add h ~time:1 1;
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

let prop_heap_stable_interleaved =
  (* ops: [Some time] adds an entry (payload = (time, insertion index)),
     [None] pops. The heap must agree with a stable-sorted model at
     every pop and at the final drain; generated op lists run to 400
     entries, so live size crosses the initial 64-slot capacity. *)
  QCheck.Test.make
    ~name:"Heap: interleaved add/pop drains as a stable (time,seq) sort"
    QCheck.(list_of_size (Gen.int_range 0 400) (option (int_bound 20)))
    (fun ops ->
      let h = Heap.create () in
      let rec insert ((t, s) as x) = function
        | [] -> [ x ]
        | (t', s') :: _ as rest when t < t' || (t = t' && s < s') -> x :: rest
        | y :: rest -> y :: insert x rest
      in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some time ->
            Heap.add h ~time (time, !seq);
            model := insert (time, !seq) !model;
            incr seq
          | None -> (
            match (Heap.pop h, !model) with
            | None, [] -> ()
            | Some (pt, (vt, vs)), (mt, ms) :: rest ->
              model := rest;
              if not (pt = mt && vt = mt && vs = ms) then ok := false
            | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      let expected = List.map (fun (t, s) -> (t, (t, s))) !model in
      !ok && Heap.drain h = expected)

let test_heap_pop_min () =
  let h = Heap.create () in
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h));
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
      ignore (Heap.pop_min h));
  Heap.add h ~time:20 "b";
  Heap.add h ~time:10 "a";
  check Alcotest.int "min_time" 10 (Heap.min_time h);
  check Alcotest.string "pop_min" "a" (Heap.pop_min h);
  check Alcotest.int "min_time after pop" 20 (Heap.min_time h);
  check Alcotest.string "pop_min again" "b" (Heap.pop_min h);
  check Alcotest.bool "empty" true (Heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"Heap pops in nondecreasing time order"
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.add h ~time:t t) times;
      let popped = List.map fst (Heap.drain h) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted popped && List.length popped = List.length times)

(* ------------------------------------------------------------------ *)
(* Proc_id / Proc_set *)

let test_proc_ring () =
  let p = Proc_id.of_int 4 in
  check Alcotest.int "succ wraps" 0 (Proc_id.to_int (Proc_id.successor p ~n:5));
  check Alcotest.int "pred wraps" 4
    (Proc_id.to_int (Proc_id.predecessor (Proc_id.of_int 0) ~n:5));
  check Alcotest.int "distance" 3
    (Proc_id.ring_distance ~from:(Proc_id.of_int 4) ~to_:(Proc_id.of_int 2)
       ~n:5);
  check Alcotest.int "distance self" 0
    (Proc_id.ring_distance ~from:p ~to_:p ~n:5)

let test_proc_id_invalid () =
  Alcotest.check_raises "negative id" (Invalid_argument
    "Proc_id.of_int: negative id") (fun () -> ignore (Proc_id.of_int (-1)))

let set_of ids = Proc_set.of_list (List.map Proc_id.of_int ids)

let test_proc_set_ring () =
  let s = set_of [ 0; 2; 3 ] in
  let succ p = Proc_set.successor_in s (Proc_id.of_int p) ~n:5 in
  let pred p = Proc_set.predecessor_in s (Proc_id.of_int p) ~n:5 in
  check (Alcotest.option Alcotest.int) "succ 0" (Some 2)
    (Option.map Proc_id.to_int (succ 0));
  check (Alcotest.option Alcotest.int) "succ 3 wraps" (Some 0)
    (Option.map Proc_id.to_int (succ 3));
  check (Alcotest.option Alcotest.int) "succ of non-member" (Some 2)
    (Option.map Proc_id.to_int (succ 1));
  check (Alcotest.option Alcotest.int) "pred 0 wraps" (Some 3)
    (Option.map Proc_id.to_int (pred 0));
  check (Alcotest.option Alcotest.int) "pred 2" (Some 0)
    (Option.map Proc_id.to_int (pred 2));
  check (Alcotest.option Alcotest.int) "singleton has no other" None
    (Option.map Proc_id.to_int
       (Proc_set.successor_in (set_of [ 1 ]) (Proc_id.of_int 1) ~n:5))

let test_proc_set_majority () =
  check Alcotest.bool "3 of 5" true (Proc_set.is_majority (set_of [ 0; 1; 2 ]) ~n:5);
  check Alcotest.bool "2 of 5" false (Proc_set.is_majority (set_of [ 0; 1 ]) ~n:5);
  check Alcotest.bool "2 of 4" false (Proc_set.is_majority (set_of [ 0; 1 ]) ~n:4);
  check Alcotest.bool "3 of 4" true (Proc_set.is_majority (set_of [ 0; 1; 2 ]) ~n:4)

(* a set prints on one line wherever it starts: a long prefix (a
   timestamped view line, say) never pushes its last members, or the
   whole set, onto a line of their own *)
let test_proc_set_pp_one_line () =
  let set = set_of [ 0; 1; 2; 3; 4 ] in
  check Alcotest.string "alone" "{p0 p1 p2 p3 p4}"
    (Fmt.str "%a" Proc_set.pp set);
  let prefix = String.make 70 'x' in
  check Alcotest.string "after a long prefix"
    (prefix ^ " {p0 p1 p2 p3 p4}")
    (Fmt.str "%s %a" prefix Proc_set.pp set);
  check Alcotest.string "in a box after a long prefix"
    (prefix ^ " {p0 p1 p2 p3 p4} #1.0")
    (Fmt.str "@[<hov 2>%s %a #1.0@]" prefix Proc_set.pp set)

let prop_proc_set_ops_model =
  let gen = QCheck.(pair (list (int_bound 9)) (list (int_bound 9))) in
  QCheck.Test.make ~name:"Proc_set union/inter/diff match list model" gen
    (fun (a, b) ->
      let sa = set_of a and sb = set_of b in
      let la = List.sort_uniq compare a and lb = List.sort_uniq compare b in
      let to_ints s = List.map Proc_id.to_int (Proc_set.to_list s) in
      to_ints (Proc_set.union sa sb)
      = List.sort_uniq compare (la @ lb)
      && to_ints (Proc_set.inter sa sb)
         = List.filter (fun x -> List.mem x lb) la
      && to_ints (Proc_set.diff sa sb)
         = List.filter (fun x -> not (List.mem x lb)) la)

let prop_successor_in_member =
  QCheck.Test.make ~name:"successor_in returns a member of the set"
    QCheck.(pair (list (int_bound 7)) (int_bound 7))
    (fun (ids, p) ->
      let s = set_of ids in
      match Proc_set.successor_in s (Proc_id.of_int p) ~n:8 with
      | Some q -> Proc_set.mem q s
      | None ->
        Proc_set.is_empty (Proc_set.remove (Proc_id.of_int p) s))

(* ------------------------------------------------------------------ *)
(* Hardware clock *)

let test_clock_reading () =
  let c = Hardware_clock.create ~offset:(Time.of_ms 100) ~drift:0.0 in
  check Alcotest.int "offset only" 101_000
    (Hardware_clock.reading c ~real:(Time.of_ms 1));
  let fast = Hardware_clock.create ~offset:Time.zero ~drift:1e-3 in
  check Alcotest.int "drift" 1_001_000
    (Hardware_clock.reading fast ~real:(Time.of_sec 1))

let prop_clock_inverse =
  QCheck.Test.make ~name:"real_of_reading inverts reading within 1us"
    QCheck.(triple (int_bound 100_000_000) (int_bound 1_000_000) (int_range 0 100))
    (fun (real, offset, drift_ppm) ->
      let drift = float_of_int drift_ppm *. 1e-6 in
      let c = Hardware_clock.create ~offset ~drift in
      let r = Hardware_clock.reading c ~real in
      let real' = Hardware_clock.real_of_reading c ~clock:r in
      abs (real - real') <= 1)

let prop_clock_monotone =
  QCheck.Test.make ~name:"clock reading is monotone"
    QCheck.(triple (int_bound 10_000_000) (int_bound 10_000_000) (int_range 0 100))
    (fun (a, b, drift_ppm) ->
      let drift = (float_of_int drift_ppm *. 1e-6) -. 5e-5 in
      let c = Hardware_clock.create ~offset:(Time.of_ms 5) ~drift in
      let lo = min a b and hi = max a b in
      Hardware_clock.reading c ~real:lo <= Hardware_clock.reading c ~real:hi)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.incr_by s "b" 5;
  check Alcotest.int "a" 2 (Stats.count s "a");
  check Alcotest.int "b" 5 (Stats.count s "b");
  check Alcotest.int "missing" 0 (Stats.count s "zzz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted" [ ("a", 2); ("b", 5) ] (Stats.counters s)

let test_stats_summary () =
  let s = Stats.create () in
  List.iter (Stats.record s "x") [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  match Stats.summary_of s "x" with
  | None -> Alcotest.fail "expected summary"
  | Some sum ->
    check Alcotest.int "n" 5 sum.Stats.n;
    check (Alcotest.float 1e-9) "mean" 3.0 sum.Stats.mean;
    check (Alcotest.float 1e-9) "p50" 3.0 sum.Stats.p50;
    (* linear interpolation between ranks: 0.9 * 4 = 3.6 -> 4 + 0.6 *)
    check (Alcotest.float 1e-9) "p90" 4.6 sum.Stats.p90;
    check (Alcotest.float 1e-9) "min" 1.0 sum.Stats.min;
    check (Alcotest.float 1e-9) "max" 5.0 sum.Stats.max

let test_stats_empty_summary () =
  check Alcotest.bool "none" true (Stats.summarize [||] = None)

let test_stats_interned () =
  let s = Stats.create () in
  let c = Stats.counter s "hot" in
  check Alcotest.int "interned at zero" 0 (Stats.count s "hot");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "listed at zero" [ ("hot", 0) ] (Stats.counters s);
  Stats.bump c;
  Stats.bump c;
  Stats.incr s "hot";
  Stats.bump_by c 3;
  (* both APIs observe the same cell *)
  check Alcotest.int "string api sees bumps" 6 (Stats.count s "hot");
  check Alcotest.int "handle sees string incrs" 6 (Stats.counter_value c);
  let c' = Stats.counter s "hot" in
  Stats.bump c';
  check Alcotest.int "re-interning aliases the cell" 7 (Stats.count s "hot")

let test_stats_merge_interned () =
  let a = Stats.create () and b = Stats.create () in
  let ca = Stats.counter a "x" in
  Stats.bump ca;
  let cb = Stats.counter b "x" in
  Stats.bump_by cb 2;
  Stats.incr b "y";
  Stats.merge a b;
  check Alcotest.int "merged interned counts" 3 (Stats.count a "x");
  check Alcotest.int "merged string counts" 1 (Stats.count a "y");
  (* handles survive the merge, on both sides *)
  Stats.bump ca;
  check Alcotest.int "dst handle live after merge" 4 (Stats.count a "x");
  Stats.bump cb;
  check Alcotest.int "src unaffected by dst bump" 3 (Stats.count b "x")

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.incr a "x";
  Stats.incr b "x";
  Stats.record b "s" 1.0;
  Stats.merge a b;
  check Alcotest.int "merged counter" 2 (Stats.count a "x");
  check Alcotest.int "merged samples" 1 (Array.length (Stats.samples a "s"))

let prop_stats_percentile_order =
  QCheck.Test.make ~name:"p50 <= p95 <= p99 <= max"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun values ->
      match Stats.summarize (Array.of_list values) with
      | None -> false
      | Some s ->
        s.Stats.p50 <= s.Stats.p95 +. 1e-9
        && s.Stats.p95 <= s.Stats.p99 +. 1e-9
        && s.Stats.p99 <= s.Stats.max +. 1e-9
        && s.Stats.min <= s.Stats.p50 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Net *)

let test_net_config_validation () =
  let bad d =
    match Net.validate_config d with Ok () -> false | Error _ -> true
  in
  check Alcotest.bool "default ok" true
    (Net.validate_config Net.default_config = Ok ());
  check Alcotest.bool "delay_max > delta rejected" true
    (bad { Net.default_config with Net.delay_max = Time.of_ms 11 });
  check Alcotest.bool "late without headroom rejected" true
    (bad
       {
         Net.default_config with
         Net.late_prob = 0.5;
         late_delay_max = Time.of_ms 5;
       });
  check Alcotest.bool "bad probability rejected" true
    (bad { Net.default_config with Net.omission_prob = 1.5 })

let test_net_delays_within_bounds () =
  let net = Net.create Net.default_config (Rng.create 1) in
  for _ = 1 to 200 do
    match Net.fate net ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1) () with
    | Net.Deliver_after d ->
      if d < Net.default_config.Net.delay_min || d > Net.default_config.Net.delay_max
      then Alcotest.fail "delay out of bounds"
    | Net.Dropped _ -> Alcotest.fail "unexpected drop with prob 0"
  done

let test_net_omission_rate () =
  let cfg = { Net.default_config with Net.omission_prob = 0.5 } in
  let net = Net.create cfg (Rng.create 2) in
  let drops = ref 0 in
  for _ = 1 to 1000 do
    match Net.fate net ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1) () with
    | Net.Dropped _ -> incr drops
    | Net.Deliver_after _ -> ()
  done;
  if !drops < 400 || !drops > 600 then
    Alcotest.failf "omission rate off: %d/1000" !drops

let test_net_late_messages_exceed_delta () =
  let cfg =
    { Net.default_config with Net.late_prob = 1.0; late_delay_max = Time.of_ms 50 }
  in
  let net = Net.create cfg (Rng.create 3) in
  for _ = 1 to 100 do
    match Net.fate net ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1) () with
    | Net.Deliver_after d ->
      if d <= cfg.Net.delta then Alcotest.fail "late message not late"
    | Net.Dropped _ -> Alcotest.fail "unexpected drop"
  done

let test_net_partition () =
  let net = Net.create Net.default_config (Rng.create 4) in
  Net.set_partition net [ set_of [ 0; 1 ]; set_of [ 2 ] ];
  let fate src dst =
    Net.fate net ~src:(Proc_id.of_int src) ~dst:(Proc_id.of_int dst) ()
  in
  (match fate 0 1 with
  | Net.Deliver_after _ -> ()
  | Net.Dropped _ -> Alcotest.fail "same block dropped");
  (match fate 0 2 with
  | Net.Dropped "partition" -> ()
  | _ -> Alcotest.fail "cross block delivered");
  (* p3 is in no block: isolated *)
  (match fate 3 0 with
  | Net.Dropped "partition" -> ()
  | _ -> Alcotest.fail "isolated process delivered");
  Net.heal net;
  match fate 0 2 with
  | Net.Deliver_after _ -> ()
  | Net.Dropped _ -> Alcotest.fail "heal did not restore"

let test_net_partition_unlisted_singletons () =
  (* regression: a process absent from every block used to be isolated
     by accident (List.find_opt missed and everything dropped as
     "partition"); the semantics are now explicit — unlisted processes
     are singleton blocks. Topology scenarios name subsets, so all
     three pairings matter. *)
  let net = Net.create Net.default_config (Rng.create 11) in
  Net.set_partition net [ set_of [ 0; 1 ] ];
  let fate src dst =
    Net.fate net ~src:(Proc_id.of_int src) ~dst:(Proc_id.of_int dst) ()
  in
  (match fate 2 0 with
  | Net.Dropped "partition" -> ()
  | _ -> Alcotest.fail "unlisted->listed delivered");
  (match fate 0 2 with
  | Net.Dropped "partition" -> ()
  | _ -> Alcotest.fail "listed->unlisted delivered");
  (match fate 2 3 with
  | Net.Dropped "partition" -> ()
  | _ -> Alcotest.fail "unlisted->unlisted (distinct) delivered");
  (* a singleton block contains its process: the self-loop stays up *)
  (match fate 2 2 with
  | Net.Deliver_after _ -> ()
  | Net.Dropped _ -> Alcotest.fail "unlisted self-loop dropped");
  match Net.set_partition net [ set_of [ 0; 1 ]; set_of [ 1; 2 ] ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlapping blocks accepted"

let test_net_link_overrides () =
  let pid = Proc_id.of_int in
  let net = Net.create Net.default_config (Rng.create 12) in
  check Alcotest.int "no overrides initially" 0 (Net.links_overridden net);
  (* degrade 0->1 only: delays pinned to [9ms, 10ms], the reverse
     direction keeps the global [1ms, 8ms] *)
  Net.set_link net ~src:(pid 0) ~dst:(pid 1) ~delay_min:(Time.of_ms 9)
    ~delay_max:(Time.of_ms 10) ();
  check Alcotest.int "one override" 1 (Net.links_overridden net);
  let eff = Net.link_config net ~src:(pid 0) ~dst:(pid 1) in
  check Alcotest.int "override delay_min" (Time.of_ms 9) eff.Net.delay_min;
  check Alcotest.int "override keeps global delta" Net.default_config.Net.delta
    eff.Net.delta;
  let rev = Net.link_config net ~src:(pid 1) ~dst:(pid 0) in
  check Alcotest.int "reverse direction untouched"
    Net.default_config.Net.delay_min rev.Net.delay_min;
  for _ = 1 to 200 do
    (match Net.fate net ~src:(pid 0) ~dst:(pid 1) () with
    | Net.Deliver_after d ->
      if d < Time.of_ms 9 || d > Time.of_ms 10 then
        Alcotest.failf "slow link delay %a outside [9ms,10ms]" Time.pp d
    | Net.Dropped _ -> Alcotest.fail "unexpected drop on slow link");
    match Net.fate net ~src:(pid 1) ~dst:(pid 0) () with
    | Net.Deliver_after d ->
      if d > Time.of_ms 8 then
        Alcotest.failf "timely reverse link delayed %a" Time.pp d
    | Net.Dropped _ -> Alcotest.fail "unexpected drop on reverse link"
  done;
  (* re-setting replaces wholesale: the delay override is gone *)
  Net.set_link net ~src:(pid 0) ~dst:(pid 1) ~omission_prob:1.0 ();
  check Alcotest.int "still one override" 1 (Net.links_overridden net);
  (match Net.fate net ~src:(pid 0) ~dst:(pid 1) () with
  | Net.Dropped "omission" -> ()
  | _ -> Alcotest.fail "lossy override not applied");
  Net.clear_link net ~src:(pid 0) ~dst:(pid 1);
  check Alcotest.int "cleared" 0 (Net.links_overridden net);
  let back = Net.link_config net ~src:(pid 0) ~dst:(pid 1) in
  check Alcotest.bool "back to global" true (back = Net.default_config)

let test_net_link_validation () =
  let pid = Proc_id.of_int in
  let net = Net.create Net.default_config (Rng.create 13) in
  let rejected f = match f () with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  check Alcotest.bool "delay_max > delta rejected" true
    (rejected (fun () ->
         Net.set_link net ~src:(pid 0) ~dst:(pid 1)
           ~delay_max:(Time.of_ms 11) ()));
  check Alcotest.bool "delay_max < delay_min rejected" true
    (rejected (fun () ->
         Net.set_link net ~src:(pid 0) ~dst:(pid 1)
           ~delay_min:(Time.of_ms 5) ~delay_max:(Time.of_ms 4) ()));
  check Alcotest.bool "late without late_delay_max > delta rejected" true
    (rejected (fun () ->
         Net.set_link net ~src:(pid 0) ~dst:(pid 1) ~late_prob:0.5
           ~late_delay_max:(Time.of_ms 10) ()));
  check Alcotest.bool "omission_prob out of range rejected" true
    (rejected (fun () ->
         Net.set_link net ~src:(pid 0) ~dst:(pid 1) ~omission_prob:1.5 ()));
  check Alcotest.int "no override leaked by rejections" 0
    (Net.links_overridden net)

(* The model invariant, as a property over random link overrides: every
   delivery drawn under the effective config of a (possibly overridden)
   link is either timely within [delay_min, delay_max] or late within
   (delta, late_delay_max] — never in between, never beyond. *)
let prop_net_fate_delay_bounds =
  QCheck.Test.make ~name:"Net.fate delays respect the effective link config"
    ~count:200
    QCheck.(
      quad small_int (int_range 0 100) (int_range 0 100) (int_range 0 100))
    (fun (seed, a, b, late_pct) ->
      let pid = Proc_id.of_int in
      let lo = Time.of_ms (1 + min a b / 10)
      and hi = Time.of_ms (1 + (max a b / 10)) in
      (* keep the override inside the global delta = 10ms *)
      let lo = Time.min lo (Time.of_ms 10) and hi = Time.min hi (Time.of_ms 10) in
      let late_prob = float_of_int late_pct /. 100.0 in
      let late_delay_max = Time.of_ms 60 in
      let net = Net.create Net.default_config (Rng.create seed) in
      Net.set_link net ~src:(pid 0) ~dst:(pid 1) ~delay_min:lo ~delay_max:hi
        ~late_prob ~late_delay_max ();
      let eff = Net.link_config net ~src:(pid 0) ~dst:(pid 1) in
      let ok = ref true in
      for _ = 1 to 100 do
        match Net.fate net ~src:(pid 0) ~dst:(pid 1) () with
        | Net.Deliver_after d ->
          let timely = d >= eff.Net.delay_min && d <= eff.Net.delay_max in
          let late = d > eff.Net.delta && d <= eff.Net.late_delay_max in
          if not (timely || late) then ok := false
        | Net.Dropped _ -> ok := false
      done;
      !ok)

let test_net_filter_partition_overlap () =
  (* regression: fate used to consult drop filters before the partition
     check, so a datagram that the partition was going to kill anyway
     burned a bounded filter's max_drops budget — a chaos plan arming
     "drop the next decision" during a partition found its filter
     already exhausted by the time the partition healed. Partitioned
     traffic must not touch filter budgets. *)
  let net = Net.create Net.default_config (Rng.create 7) in
  Net.add_filter net ~max_drops:1 ~name:"bounded" (fun ~src:_ ~dst:_ v ->
      v = 1);
  Net.set_partition net [ set_of [ 0 ]; set_of [ 1 ] ];
  let fate v =
    Net.fate net ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1) v
  in
  (* matches the filter AND crosses the cut: the partition must claim it *)
  (match fate 1 with
  | Net.Dropped "partition" -> ()
  | Net.Dropped r -> Alcotest.failf "expected partition drop, got %s" r
  | Net.Deliver_after _ -> Alcotest.fail "cross-cut message delivered");
  check (Alcotest.list Alcotest.string) "budget untouched" [ "bounded" ]
    (Net.active_filters net);
  Net.heal net;
  (* healed: now the filter gets its shot, and spends its one drop *)
  (match fate 1 with
  | Net.Dropped "filter:bounded" -> ()
  | Net.Dropped r -> Alcotest.failf "expected filter drop, got %s" r
  | Net.Deliver_after _ -> Alcotest.fail "armed filter did not fire");
  check (Alcotest.list Alcotest.string) "budget now spent" []
    (Net.active_filters net);
  match fate 1 with
  | Net.Deliver_after _ -> ()
  | Net.Dropped _ -> Alcotest.fail "exhausted filter still matching"

let test_net_filter_exhausted_pruned () =
  let net = Net.create Net.default_config (Rng.create 6) in
  Net.add_filter net ~max_drops:1 ~name:"once" (fun ~src:_ ~dst:_ v -> v = 1);
  Net.add_filter net ~name:"sticky" (fun ~src:_ ~dst:_ v -> v = 2);
  check (Alcotest.list Alcotest.string) "installation order" [ "once"; "sticky" ]
    (Net.active_filters net);
  let fate v =
    Net.fate net ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1) v
  in
  (match fate 1 with
  | Net.Dropped _ -> ()
  | Net.Deliver_after _ -> Alcotest.fail "bounded filter did not match");
  (* the single allowed drop is spent: the filter must be gone, not
     merely inert *)
  check (Alcotest.list Alcotest.string) "exhausted filter removed"
    [ "sticky" ] (Net.active_filters net);
  (match fate 1 with
  | Net.Deliver_after _ -> ()
  | Net.Dropped _ -> Alcotest.fail "exhausted filter still matching");
  Net.remove_filter net ~name:"sticky";
  check (Alcotest.list Alcotest.string) "removed by name" []
    (Net.active_filters net);
  (match fate 2 with
  | Net.Deliver_after _ -> ()
  | Net.Dropped _ -> Alcotest.fail "removed filter still matching");
  (* unknown names are ignored *)
  Net.remove_filter net ~name:"never-installed";
  (* a max_drops of 0 is never installed at all *)
  Net.add_filter net ~max_drops:0 ~name:"zero" (fun ~src:_ ~dst:_ _ -> true);
  check (Alcotest.list Alcotest.string) "zero-budget filter skipped" []
    (Net.active_filters net)

let test_net_filters () =
  let net = Net.create Net.default_config (Rng.create 5) in
  Net.add_filter net ~max_drops:2 ~name:"two"
    (fun ~src:_ ~dst:_ v -> v = 42);
  let fate v =
    Net.fate net ~src:(Proc_id.of_int 0) ~dst:(Proc_id.of_int 1) v
  in
  (match fate 42 with Net.Dropped r -> check Alcotest.string "reason" "filter:two" r | _ -> Alcotest.fail "not dropped");
  (match fate 7 with Net.Deliver_after _ -> () | _ -> Alcotest.fail "non-matching dropped");
  (match fate 42 with Net.Dropped _ -> () | _ -> Alcotest.fail "second not dropped");
  (match fate 42 with
  | Net.Deliver_after _ -> ()
  | Net.Dropped _ -> Alcotest.fail "filter did not disarm");
  Net.clear_filters net

(* ------------------------------------------------------------------ *)
(* Engine *)

type msg = Ping of int | Echo of int

let echo_automaton ~replies =
  {
    Engine.name = "echo";
    init = (fun ~self:_ ~n:_ ~clock:_ ~incarnation:_ -> ((), []));
    on_receive =
      (fun () ~clock:_ ~src msg ->
        match msg with
        | Ping k ->
          incr replies;
          ((), [ Engine.Send (src, Echo k) ])
        | Echo _ ->
          incr replies;
          ((), []));
    on_timer = (fun () ~clock:_ ~key:_ -> ((), []));
  }

let test_engine_message_roundtrip () =
  let replies = ref 0 in
  let engine = Engine.create Engine.default_config ~n:2 in
  let a = echo_automaton ~replies in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.add_process engine (Proc_id.of_int 1) a ~clock:Engine.ideal_clock ();
  Engine.inject engine (Proc_id.of_int 0) (Ping 0) |> ignore;
  (* the injected ping is echoed to self, then... self-src so Send goes to p0 *)
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.bool "some events processed" true (!replies > 0)

let timer_automaton ~fired =
  {
    Engine.name = "timer";
    init =
      (fun ~self:_ ~n:_ ~clock ~incarnation:_ ->
        ((), [ Engine.Set_timer { key = 1; at_clock = Time.add clock (Time.of_ms 10) } ]));
    on_receive = (fun () ~clock:_ ~src:_ _ -> ((), []));
    on_timer =
      (fun () ~clock ~key ->
        fired := (key, clock) :: !fired;
        ((), []));
  }

let test_engine_timer_fires () =
  let fired = ref [] in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) (timer_automaton ~fired)
    ~clock:Engine.ideal_clock ();
  Engine.run engine ~until:(Time.of_sec 1);
  match !fired with
  | [ (1, at) ] ->
    if at < Time.of_ms 10 then Alcotest.fail "fired early";
    if at > Time.of_ms 12 then Alcotest.fail "fired too late"
  | _ -> Alcotest.failf "expected one firing, got %d" (List.length !fired)

let test_engine_timer_rearm_replaces () =
  let fired = ref [] in
  let a =
    {
      Engine.name = "rearm";
      init =
        (fun ~self:_ ~n:_ ~clock ~incarnation:_ ->
          ( (),
            [
              Engine.Set_timer { key = 1; at_clock = Time.add clock (Time.of_ms 10) };
              Engine.Set_timer { key = 1; at_clock = Time.add clock (Time.of_ms 30) };
            ] ));
      on_receive = (fun () ~clock:_ ~src:_ _ -> ((), []));
      on_timer =
        (fun () ~clock ~key ->
          fired := (key, clock) :: !fired;
          ((), []));
    }
  in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.int "only the re-armed firing" 1 (List.length !fired);
  match !fired with
  | [ (_, at) ] -> if at < Time.of_ms 30 then Alcotest.fail "old arming fired"
  | _ -> ()

let test_engine_cancel_timer () =
  let fired = ref [] in
  let a =
    {
      Engine.name = "cancel";
      init =
        (fun ~self:_ ~n:_ ~clock ~incarnation:_ ->
          ( (),
            [
              Engine.Set_timer { key = 1; at_clock = Time.add clock (Time.of_ms 10) };
              Engine.Cancel_timer 1;
            ] ));
      on_receive = (fun () ~clock:_ ~src:_ _ -> ((), []));
      on_timer =
        (fun () ~clock ~key ->
          fired := (key, clock) :: !fired;
          ((), []));
    }
  in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.int "cancelled" 0 (List.length !fired)

let test_engine_crash_recovery_incarnation () =
  let incarnations = ref [] in
  let a =
    {
      Engine.name = "inc";
      init =
        (fun ~self:_ ~n:_ ~clock:_ ~incarnation ->
          incarnations := incarnation :: !incarnations;
          ((), []));
      on_receive = (fun () ~clock:_ ~src:_ _ -> ((), []));
      on_timer = (fun () ~clock:_ ~key:_ -> ((), []));
    }
  in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.crash_at engine (Time.of_ms 100) (Proc_id.of_int 0);
  Engine.recover_at engine (Time.of_ms 200) (Proc_id.of_int 0);
  Engine.run engine ~until:(Time.of_sec 1);
  check (Alcotest.list Alcotest.int) "incarnations" [ 1; 0 ] !incarnations;
  check Alcotest.bool "up after recovery" true
    (Engine.is_up engine (Proc_id.of_int 0))

let test_engine_crashed_drops_messages () =
  let replies = ref 0 in
  let engine = Engine.create Engine.default_config ~n:2 in
  let a = echo_automaton ~replies in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.add_process engine (Proc_id.of_int 1) a ~clock:Engine.ideal_clock ();
  Engine.crash_at engine (Time.of_ms 1) (Proc_id.of_int 1);
  Engine.inject_at engine (Time.of_ms 10) (Proc_id.of_int 1) (Ping 1);
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.int "no handling while down" 0 !replies;
  check Alcotest.bool "state erased" true
    (Engine.state_of engine (Proc_id.of_int 1) = None)

let test_engine_classify_counts () =
  let replies = ref 0 in
  let engine = Engine.create Engine.default_config ~n:2 in
  Engine.classify engine (function Ping _ -> "ping" | Echo _ -> "echo");
  let a = echo_automaton ~replies in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.add_process engine (Proc_id.of_int 1) a ~clock:Engine.ideal_clock ();
  Engine.inject engine (Proc_id.of_int 0) (Ping 3);
  Engine.run engine ~until:(Time.of_sec 1);
  let stats = Engine.stats engine in
  check Alcotest.bool "echo sent counted" true (Stats.count stats "sent:echo" >= 1)

let test_engine_broadcast_excludes_self () =
  let received = ref [] in
  let a =
    {
      Engine.name = "bcast";
      init =
        (fun ~self ~n:_ ~clock:_ ~incarnation:_ ->
          if Proc_id.to_int self = 0 then ((), [ Engine.Broadcast (Ping 9) ])
          else ((), []));
      on_receive =
        (fun () ~clock:_ ~src:_ msg ->
          (match msg with Ping k -> received := k :: !received | Echo _ -> ());
          ((), []));
      on_timer = (fun () ~clock:_ ~key:_ -> ((), []));
    }
  in
  let engine = Engine.create Engine.default_config ~n:3 in
  List.iter
    (fun i ->
      Engine.add_process engine (Proc_id.of_int i) a ~clock:Engine.ideal_clock ())
    [ 0; 1; 2 ];
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.int "two receivers" 2 (List.length !received)

let test_trace_recording () =
  let trace = Trace.create () in
  let replies = ref 0 in
  let engine = Engine.create Engine.default_config ~n:2 in
  Engine.classify engine (function Ping _ -> "ping" | Echo _ -> "echo");
  Engine.set_trace engine trace;
  let a = echo_automaton ~replies in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock ();
  Engine.add_process engine (Proc_id.of_int 1) a ~clock:Engine.ideal_clock ();
  Engine.inject engine (Proc_id.of_int 0) (Ping 1);
  Engine.crash_at engine (Time.of_ms 500) (Proc_id.of_int 1);
  Engine.recover_at engine (Time.of_ms 600) (Proc_id.of_int 1);
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.bool "echo sends recorded" true
    (Trace.count ~kind:"echo" trace >= 1);
  check Alcotest.bool "src filter" true
    (Trace.count ~kind:"echo" ~src:(Proc_id.of_int 0) trace >= 1);
  let crashes =
    List.filter
      (fun (e : Trace.entry) ->
        match e.Trace.event with Trace.Crashed _ -> true | _ -> false)
      (Trace.entries trace)
  in
  check Alcotest.int "crash recorded" 1 (List.length crashes);
  (* entries are time-ordered *)
  let times = List.map (fun (e : Trace.entry) -> e.Trace.at) (Trace.entries trace) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  check Alcotest.bool "ordered" true (sorted times)

let test_trace_capacity () =
  let trace = Trace.create ~capacity:5 () in
  for i = 0 to 9 do
    Trace.record trace (Time.of_ms i) (Trace.Crashed (Proc_id.of_int 0))
  done;
  check Alcotest.int "bounded" 5 (Trace.length trace);
  check Alcotest.int "discards counted" 5 (Trace.dropped_entries trace);
  (* oldest were discarded *)
  (match Trace.entries trace with
  | first :: _ -> check Alcotest.int "kept newest" (Time.of_ms 5) first.Trace.at
  | [] -> Alcotest.fail "empty");
  Trace.clear trace;
  check Alcotest.int "cleared" 0 (Trace.length trace)

let test_trace_between () =
  let trace = Trace.create () in
  List.iter
    (fun ms -> Trace.record trace (Time.of_ms ms) (Trace.Crashed (Proc_id.of_int 0)))
    [ 10; 20; 30; 40 ];
  check Alcotest.int "window" 2
    (List.length (Trace.between trace ~from:(Time.of_ms 15) ~until:(Time.of_ms 35)))

let test_engine_slow_scheduling () =
  (* with slow_prob = 1, every dispatch suffers a scheduling performance
     failure: reaction delays must exceed sigma *)
  let fired = ref [] in
  let cfg =
    {
      Engine.default_config with
      Engine.slow_prob = 1.0;
      slow_delay_max = Time.of_ms 5;
    }
  in
  let engine = Engine.create cfg ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) (timer_automaton ~fired)
    ~clock:Engine.ideal_clock ();
  Engine.run engine ~until:(Time.of_sec 1);
  match !fired with
  | [ (_, at) ] ->
    check Alcotest.bool "slower than sigma" true
      (at > Time.add (Time.of_ms 10) cfg.Engine.sigma)
  | _ -> Alcotest.fail "expected one firing"

let test_engine_config_validation () =
  let rejected cfg =
    match Engine.validate_config cfg with
    | Error _ -> (
      (* Engine.create must agree with the validator *)
      match Engine.create cfg ~n:1 with
      | exception Invalid_argument _ -> true
      | _ -> Alcotest.fail "create accepted a config validate rejects")
    | Ok () -> false
  in
  check Alcotest.bool "default ok" true
    (Engine.validate_config Engine.default_config = Ok ());
  check Alcotest.bool "sigma <= 0 rejected" true
    (rejected { Engine.default_config with Engine.sigma = Time.zero });
  check Alcotest.bool "sched_min < 0 rejected" true
    (rejected
       { Engine.default_config with Engine.sched_min = Time.of_ms (-1) });
  check Alcotest.bool "sched_min > sigma rejected" true
    (rejected { Engine.default_config with Engine.sched_min = Time.of_ms 2 });
  check Alcotest.bool "slow_prob > 1 rejected" true
    (rejected { Engine.default_config with Engine.slow_prob = 1.5 });
  check Alcotest.bool "slow_prob < 0 rejected" true
    (rejected { Engine.default_config with Engine.slow_prob = -0.1 });
  (* a "performance failure" no slower than a timely dispatch *)
  check Alcotest.bool "slow_delay_max <= sigma rejected" true
    (rejected
       {
         Engine.default_config with
         Engine.slow_prob = 0.5;
         slow_delay_max = Engine.default_config.Engine.sigma;
       });
  (* ... but slow_delay_max is irrelevant while slow_prob = 0 *)
  check Alcotest.bool "slow_delay_max ignored when slow off" true
    (Engine.validate_config
       { Engine.default_config with Engine.slow_delay_max = Time.zero }
    = Ok ())

let test_engine_set_slow_validation () =
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0)
    (timer_automaton ~fired:(ref []))
    ~clock:Engine.ideal_clock ();
  (match
     Engine.set_slow engine ~slow_prob:0.5
       ~slow_delay_max:Engine.default_config.Engine.sigma
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set_slow accepted a degenerate pair");
  Engine.set_slow engine ~slow_prob:0.5 ~slow_delay_max:(Time.of_ms 5);
  Engine.reset_slow engine

let test_engine_crash_before_start () =
  (* crashing a process before its registration-time start fires must
     cancel the start: the process stays down, its init never runs,
     until an explicit recovery *)
  let incarnations = ref [] in
  let a =
    {
      Engine.name = "late-start";
      init =
        (fun ~self:_ ~n:_ ~clock:_ ~incarnation ->
          incarnations := incarnation :: !incarnations;
          ((), []));
      on_receive = (fun () ~clock:_ ~src:_ _ -> ((), []));
      on_timer = (fun () ~clock:_ ~key:_ -> ((), []));
    }
  in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) a ~clock:Engine.ideal_clock
    ~start:(Time.of_ms 100) ();
  Engine.crash_at engine (Time.of_ms 50) (Proc_id.of_int 0);
  Engine.run engine ~until:(Time.of_ms 500);
  check (Alcotest.list Alcotest.int) "init never ran" [] !incarnations;
  check Alcotest.bool "still down past its start time" false
    (Engine.is_up engine (Proc_id.of_int 0));
  Engine.recover_at engine (Time.of_ms 600) (Proc_id.of_int 0);
  Engine.run engine ~until:(Time.of_sec 1);
  check (Alcotest.list Alcotest.int) "recovery runs init once" [ 1 ]
    !incarnations;
  check Alcotest.bool "up after recovery" true
    (Engine.is_up engine (Proc_id.of_int 0))

let inc_automaton incarnations =
  {
    Engine.name = "inc";
    init =
      (fun ~self:_ ~n:_ ~clock:_ ~incarnation ->
        incarnations := incarnation :: !incarnations;
        ((), []));
    on_receive = (fun () ~clock:_ ~src:_ _ -> ((), []));
    on_timer = (fun () ~clock:_ ~key:_ -> ((), []));
  }

let test_engine_double_crash_is_noop () =
  (* a fault plan may crash an already-down process; the second crash
     must neither bump the incarnation again nor count as a new crash *)
  let incarnations = ref [] in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) (inc_automaton incarnations)
    ~clock:Engine.ideal_clock ();
  Engine.crash_at engine (Time.of_ms 100) (Proc_id.of_int 0);
  Engine.crash_at engine (Time.of_ms 150) (Proc_id.of_int 0);
  Engine.recover_at engine (Time.of_ms 200) (Proc_id.of_int 0);
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.int "one effective crash" 1
    (Stats.count (Engine.stats engine) "crashes");
  check (Alcotest.list Alcotest.int) "incarnation bumped once" [ 1; 0 ]
    !incarnations;
  check Alcotest.bool "up after recovery" true
    (Engine.is_up engine (Proc_id.of_int 0))

let test_engine_double_recover_is_noop () =
  (* symmetrically, recovering an already-up process is idempotent:
     init must not re-run and no recovery is counted *)
  let incarnations = ref [] in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) (inc_automaton incarnations)
    ~clock:Engine.ideal_clock ();
  Engine.crash_at engine (Time.of_ms 100) (Proc_id.of_int 0);
  Engine.recover_at engine (Time.of_ms 200) (Proc_id.of_int 0);
  Engine.recover_at engine (Time.of_ms 300) (Proc_id.of_int 0);
  Engine.run engine ~until:(Time.of_sec 1);
  check Alcotest.int "one effective recovery" 1
    (Stats.count (Engine.stats engine) "recoveries");
  check (Alcotest.list Alcotest.int) "init ran exactly twice" [ 1; 0 ]
    !incarnations

let test_engine_recover_never_started_rejected () =
  (* recovering a process that was never started (registered with a
     future start that never fired, and never crashed) is a plan bug,
     not a no-op: it must be rejected loudly *)
  let incarnations = ref [] in
  let engine = Engine.create Engine.default_config ~n:1 in
  Engine.add_process engine (Proc_id.of_int 0) (inc_automaton incarnations)
    ~clock:Engine.ideal_clock ~start:(Time.of_sec 2) ();
  Engine.recover_at engine (Time.of_ms 100) (Proc_id.of_int 0);
  (match Engine.run engine ~until:(Time.of_sec 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "recover of a never-started process was accepted");
  check (Alcotest.list Alcotest.int) "init never ran" [] !incarnations

let test_engine_determinism () =
  let run () =
    let fired = ref [] in
    let engine =
      Engine.create { Engine.default_config with Engine.seed = 99 } ~n:1
    in
    Engine.add_process engine (Proc_id.of_int 0) (timer_automaton ~fired)
      ~clock:Engine.ideal_clock ();
    Engine.run engine ~until:(Time.of_sec 1);
    !fired
  in
  check Alcotest.bool "identical runs" true (run () = run ())

let () =
  Alcotest.run "tasim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "scale" `Quick test_time_scale;
          Alcotest.test_case "pp" `Quick test_time_pp;
          qcheck prop_time_scale_monotone;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_positive;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          qcheck prop_rng_int_bounds;
          qcheck prop_rng_float_unit;
          qcheck prop_rng_uniform_time;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "growth" `Quick test_heap_grows;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "min_time/pop_min" `Quick test_heap_pop_min;
          qcheck prop_heap_sorted;
          qcheck prop_heap_stable_interleaved;
        ] );
      ( "proc",
        [
          Alcotest.test_case "ring" `Quick test_proc_ring;
          Alcotest.test_case "invalid" `Quick test_proc_id_invalid;
          Alcotest.test_case "set ring" `Quick test_proc_set_ring;
          Alcotest.test_case "majority" `Quick test_proc_set_majority;
          Alcotest.test_case "set prints on one line" `Quick
            test_proc_set_pp_one_line;
          qcheck prop_proc_set_ops_model;
          qcheck prop_successor_in_member;
        ] );
      ( "clock",
        [
          Alcotest.test_case "reading" `Quick test_clock_reading;
          qcheck prop_clock_inverse;
          qcheck prop_clock_monotone;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty_summary;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "interned counters" `Quick test_stats_interned;
          Alcotest.test_case "merge after interning" `Quick
            test_stats_merge_interned;
          qcheck prop_stats_percentile_order;
        ] );
      ( "net",
        [
          Alcotest.test_case "config validation" `Quick test_net_config_validation;
          Alcotest.test_case "delay bounds" `Quick test_net_delays_within_bounds;
          Alcotest.test_case "omission rate" `Quick test_net_omission_rate;
          Alcotest.test_case "late > delta" `Quick test_net_late_messages_exceed_delta;
          Alcotest.test_case "partitions" `Quick test_net_partition;
          Alcotest.test_case "unlisted procs are singleton blocks" `Quick
            test_net_partition_unlisted_singletons;
          Alcotest.test_case "per-link overrides" `Quick test_net_link_overrides;
          Alcotest.test_case "per-link validation" `Quick
            test_net_link_validation;
          qcheck prop_net_fate_delay_bounds;
          Alcotest.test_case "partition shields filter budgets" `Quick
            test_net_filter_partition_overlap;
          Alcotest.test_case "filters" `Quick test_net_filters;
          Alcotest.test_case "exhausted filter pruned" `Quick
            test_net_filter_exhausted_pruned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "roundtrip" `Quick test_engine_message_roundtrip;
          Alcotest.test_case "timer fires" `Quick test_engine_timer_fires;
          Alcotest.test_case "timer rearm" `Quick test_engine_timer_rearm_replaces;
          Alcotest.test_case "timer cancel" `Quick test_engine_cancel_timer;
          Alcotest.test_case "crash/recovery" `Quick test_engine_crash_recovery_incarnation;
          Alcotest.test_case "down drops msgs" `Quick test_engine_crashed_drops_messages;
          Alcotest.test_case "classify" `Quick test_engine_classify_counts;
          Alcotest.test_case "broadcast" `Quick test_engine_broadcast_excludes_self;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "slow scheduling" `Quick test_engine_slow_scheduling;
          Alcotest.test_case "config validation" `Quick
            test_engine_config_validation;
          Alcotest.test_case "set_slow validation" `Quick
            test_engine_set_slow_validation;
          Alcotest.test_case "crash before start" `Quick
            test_engine_crash_before_start;
          Alcotest.test_case "double crash no-op" `Quick
            test_engine_double_crash_is_noop;
          Alcotest.test_case "double recover no-op" `Quick
            test_engine_double_recover_is_noop;
          Alcotest.test_case "recover never-started rejected" `Quick
            test_engine_recover_never_started_rejected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "recording" `Quick test_trace_recording;
          Alcotest.test_case "capacity" `Quick test_trace_capacity;
          Alcotest.test_case "between" `Quick test_trace_between;
        ] );
    ]
