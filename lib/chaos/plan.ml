open Tasim
module J = Harness.Bench_json

type op =
  | Crash of { at : Time.t; proc : int }
  | Recover of { at : Time.t; proc : int }
  | Partition of { at : Time.t; block : int list }
  | Heal of { at : Time.t }
  | Omission_burst of { at : Time.t; until : Time.t; prob : float; seed : int }
  | Filter_window of {
      at : Time.t;
      until : Time.t;
      kind : string;
      src : int option;
      dst : int option;
    }
  | Slow_window of {
      at : Time.t;
      until : Time.t;
      prob : float;
      delay_max : Time.t;
    }
  | Slow_member of {
      at : Time.t;
      until : Time.t;
      proc : int;
      prob : float;
      delay_max : Time.t;
    }
  | Storage_fault of {
      at : Time.t;
      until : Time.t;
      proc : int option;
      fault : Storage.Store.fault;
    }
  | Link_window of {
      at : Time.t;
      until : Time.t;
      src : int option;
      dst : int option;
      delay_min : Time.t;
      delay_max : Time.t;
      omission_prob : float;
      late_prob : float;
      late_delay_max : Time.t;
    }

type t = { seed : int; n : int; ops : op list }

let horizon = Time.of_sec 4

let op_time = function
  | Crash { at; _ }
  | Recover { at; _ }
  | Partition { at; _ }
  | Heal { at }
  | Omission_burst { at; _ }
  | Filter_window { at; _ }
  | Slow_window { at; _ }
  | Slow_member { at; _ }
  | Storage_fault { at; _ }
  | Link_window { at; _ } ->
    at

let op_end = function
  | Omission_burst { until; _ }
  | Filter_window { until; _ }
  | Slow_window { until; _ }
  | Slow_member { until; _ }
  | Storage_fault { until; _ }
  | Link_window { until; _ } ->
    until
  | op -> op_time op

let end_time t = List.fold_left (fun acc op -> Time.max acc (op_end op)) Time.zero t.ops

(* Message kinds worth dropping in a filter window: everything the
   protocol actually puts on the wire (Submit bypasses the network). *)
let filter_kinds =
  [|
    "decision";
    "no-decision";
    "join";
    "reconfiguration";
    "proposal";
    "retransmit";
    "nack";
    "state-transfer";
  |]

let gen_op rng ~n =
  let at = Rng.uniform_time rng Time.zero horizon in
  let window () = Time.add at (Rng.uniform_time rng (Time.of_ms 100) (Time.of_ms 1500)) in
  let proc () = Rng.int rng n in
  match Rng.int rng 14 with
  | 0 | 1 | 2 -> Crash { at; proc = proc () }
  | 3 | 4 | 5 -> Recover { at; proc = proc () }
  | 6 ->
    (* a nonempty proper subset: member i goes into the block when bit i
       of a draw from [1, 2^n - 2] is set *)
    let bits = 1 + Rng.int rng ((1 lsl n) - 2) in
    let block = List.filter (fun i -> bits land (1 lsl i) <> 0) (List.init n Fun.id) in
    Partition { at; block }
  | 7 -> Heal { at }
  | 8 ->
    Omission_burst
      {
        at;
        until = window ();
        prob = 0.05 +. (0.55 *. Rng.float rng);
        seed = Rng.int rng 1_000_000;
      }
  | 9 | 10 ->
    let pick_end () = if Rng.bool rng 0.5 then Some (proc ()) else None in
    Filter_window
      {
        at;
        until = window ();
        kind = Rng.pick rng filter_kinds;
        src = pick_end ();
        dst = pick_end ();
      }
  | 11 ->
    Slow_window
      {
        at;
        until = window ();
        prob = 0.25 +. (0.75 *. Rng.float rng);
        delay_max = Rng.uniform_time rng (Time.of_ms 2) (Time.of_ms 20);
      }
  | _ ->
    Storage_fault
      {
        at;
        until = window ();
        proc = (if Rng.bool rng 0.5 then Some (proc ()) else None);
        fault =
          (if Rng.bool rng 0.5 then Storage.Store.Torn_write
           else Storage.Store.Lost_flush);
      }

let generate ~seed ~n ~ops =
  if n < 2 then invalid_arg "Plan.generate: n must be >= 2";
  let rng = Rng.create seed in
  let unsorted = List.init ops (fun _ -> gen_op rng ~n) in
  let sorted =
    List.stable_sort (fun a b -> Time.compare (op_time a) (op_time b)) unsorted
  in
  { seed; n; ops = sorted }

(* ------------------------------------------------------------------ *)
(* Parameter shrinking *)

(* Candidate smaller variants of one op, for {!Shrink.shrink_params}:
   halve window durations, probabilities and delays, each down to a
   floor. Every candidate is strictly smaller by an integer or
   floored-float measure, so repeated shrinking terminates. *)

let halved_until at until =
  let dur = Time.sub until at in
  if Time.compare dur (Time.of_ms 100) > 0 then
    Some (Time.add at (Time.div dur 2))
  else None

let halved_prob p =
  if p > 0.05 then Some (Float.max 0.05 (p /. 2.)) else None

let shrink_op op =
  match op with
  | Crash _ | Recover _ | Partition _ | Heal _ -> []
  | Omission_burst ({ at; until; prob; _ } as o) ->
    (match halved_until at until with
    | Some until -> [ Omission_burst { o with until } ]
    | None -> [])
    @
    (match halved_prob prob with
    | Some prob -> [ Omission_burst { o with prob } ]
    | None -> [])
  | Filter_window ({ at; until; _ } as o) -> (
    match halved_until at until with
    | Some until -> [ Filter_window { o with until } ]
    | None -> [])
  | Slow_window ({ at; until; prob; delay_max } as o) ->
    (match halved_until at until with
    | Some until -> [ Slow_window { o with until } ]
    | None -> [])
    @ (match halved_prob prob with
      | Some prob -> [ Slow_window { o with prob } ]
      | None -> [])
    @
    if Time.compare delay_max (Time.of_ms 2) > 0 then
      [
        Slow_window
          { o with delay_max = Time.max (Time.of_ms 2) (Time.div delay_max 2) };
      ]
    else []
  | Slow_member ({ at; until; prob; delay_max; _ } as o) ->
    (match halved_until at until with
    | Some until -> [ Slow_member { o with until } ]
    | None -> [])
    @ (match halved_prob prob with
      | Some prob -> [ Slow_member { o with prob } ]
      | None -> [])
    @
    if Time.compare delay_max (Time.of_ms 2) > 0 then
      [
        Slow_member
          { o with delay_max = Time.max (Time.of_ms 2) (Time.div delay_max 2) };
      ]
    else []
  | Storage_fault ({ at; until; _ } as o) -> (
    match halved_until at until with
    | Some until -> [ Storage_fault { o with until } ]
    | None -> [])
  | Link_window
      ({ at; until; omission_prob; late_prob; delay_min; delay_max; _ } as o)
    ->
    (* halving both delays preserves [delay_min <= delay_max], so every
       candidate still passes [Net.validate_config] *)
    let half d = Time.max (Time.of_ms 1) (Time.div d 2) in
    (match halved_until at until with
    | Some until -> [ Link_window { o with until } ]
    | None -> [])
    @ (match halved_prob omission_prob with
      | Some omission_prob -> [ Link_window { o with omission_prob } ]
      | None -> [])
    @ (match halved_prob late_prob with
      | Some late_prob -> [ Link_window { o with late_prob } ]
      | None -> [])
    @
    if Time.compare (half delay_max) delay_max < 0 then
      [
        Link_window
          { o with delay_min = half delay_min; delay_max = half delay_max };
      ]
    else []

(* ------------------------------------------------------------------ *)
(* Pretty-printing *)

let pp_endpoint ppf = function
  | None -> Fmt.string ppf "*"
  | Some p -> Fmt.int ppf p

let pp_op ppf = function
  | Crash { at; proc } -> Fmt.pf ppf "[%a] crash p%d" Time.pp at proc
  | Recover { at; proc } -> Fmt.pf ppf "[%a] recover p%d" Time.pp at proc
  | Partition { at; block } ->
    Fmt.pf ppf "[%a] partition {%a}" Time.pp at
      Fmt.(list ~sep:comma int)
      block
  | Heal { at } -> Fmt.pf ppf "[%a] heal" Time.pp at
  | Omission_burst { at; until; prob; seed } ->
    Fmt.pf ppf "[%a..%a] omission burst p=%.2f seed=%d" Time.pp at Time.pp
      until prob seed
  | Filter_window { at; until; kind; src; dst } ->
    Fmt.pf ppf "[%a..%a] drop %s %a->%a" Time.pp at Time.pp until kind
      pp_endpoint src pp_endpoint dst
  | Slow_window { at; until; prob; delay_max } ->
    Fmt.pf ppf "[%a..%a] slow scheduling p=%.2f max=%a" Time.pp at Time.pp
      until prob Time.pp delay_max
  | Slow_member { at; until; proc; prob; delay_max } ->
    Fmt.pf ppf "[%a..%a] slow member p%d p=%.2f max=%a" Time.pp at Time.pp
      until proc prob Time.pp delay_max
  | Storage_fault { at; until; proc; fault } ->
    Fmt.pf ppf "[%a..%a] storage %a p%a" Time.pp at Time.pp until
      Storage.Store.pp_fault fault pp_endpoint proc
  | Link_window
      { at; until; src; dst; delay_min; delay_max; omission_prob; late_prob; _ }
    ->
    Fmt.pf ppf "[%a..%a] link %a->%a delay=[%a,%a] om=%.2f late=%.2f" Time.pp
      at Time.pp until pp_endpoint src pp_endpoint dst Time.pp delay_min
      Time.pp delay_max omission_prob late_prob

let pp ppf t =
  Fmt.pf ppf "plan seed=%d n=%d (%d ops)@,%a" t.seed t.n (List.length t.ops)
    Fmt.(vbox (list pp_op))
    t.ops

(* ------------------------------------------------------------------ *)
(* JSON artifact *)

let version = 1

let json_endpoint = function None -> J.Null | Some p -> J.Int p

let op_to_json op =
  match op with
  | Crash { at; proc } ->
    J.Obj [ ("op", J.String "crash"); ("at", J.Int at); ("proc", J.Int proc) ]
  | Recover { at; proc } ->
    J.Obj [ ("op", J.String "recover"); ("at", J.Int at); ("proc", J.Int proc) ]
  | Partition { at; block } ->
    J.Obj
      [
        ("op", J.String "partition");
        ("at", J.Int at);
        ("block", J.List (List.map (fun p -> J.Int p) block));
      ]
  | Heal { at } -> J.Obj [ ("op", J.String "heal"); ("at", J.Int at) ]
  | Omission_burst { at; until; prob; seed } ->
    J.Obj
      [
        ("op", J.String "omission-burst");
        ("at", J.Int at);
        ("until", J.Int until);
        ("prob", J.Float prob);
        ("seed", J.Int seed);
      ]
  | Filter_window { at; until; kind; src; dst } ->
    J.Obj
      [
        ("op", J.String "filter-window");
        ("at", J.Int at);
        ("until", J.Int until);
        ("kind", J.String kind);
        ("src", json_endpoint src);
        ("dst", json_endpoint dst);
      ]
  | Slow_window { at; until; prob; delay_max } ->
    J.Obj
      [
        ("op", J.String "slow-window");
        ("at", J.Int at);
        ("until", J.Int until);
        ("prob", J.Float prob);
        ("delay_max", J.Int delay_max);
      ]
  | Slow_member { at; until; proc; prob; delay_max } ->
    J.Obj
      [
        ("op", J.String "slow-member");
        ("at", J.Int at);
        ("until", J.Int until);
        ("proc", J.Int proc);
        ("prob", J.Float prob);
        ("delay_max", J.Int delay_max);
      ]
  | Storage_fault { at; until; proc; fault } ->
    J.Obj
      [
        ("op", J.String "storage-fault");
        ("at", J.Int at);
        ("until", J.Int until);
        ("proc", json_endpoint proc);
        ("fault", J.String (Storage.Store.fault_to_string fault));
      ]
  | Link_window
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
    J.Obj
      [
        ("op", J.String "link-window");
        ("at", J.Int at);
        ("until", J.Int until);
        ("src", json_endpoint src);
        ("dst", json_endpoint dst);
        ("delay_min", J.Int delay_min);
        ("delay_max", J.Int delay_max);
        ("omission_prob", J.Float omission_prob);
        ("late_prob", J.Float late_prob);
        ("late_delay_max", J.Int late_delay_max);
      ]

let to_json t =
  J.Obj
    [
      ("version", J.Int version);
      ("seed", J.Int t.seed);
      ("n", J.Int t.n);
      ("ops", J.List (List.map op_to_json t.ops));
    ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Fmt.str "plan artifact: bad or missing field %S" name)

let float_field name j =
  match J.member name j with
  | Some (J.Float f) -> Ok f
  | Some (J.Int i) -> Ok (float_of_int i)
  | _ -> Error (Fmt.str "plan artifact: bad or missing field %S" name)

let endpoint_field name j =
  match J.member name j with
  | Some J.Null | None -> Ok None
  | Some (J.Int p) -> Ok (Some p)
  | Some _ -> Error (Fmt.str "plan artifact: bad field %S" name)

let op_of_json j =
  let* tag = field "op" J.to_str j in
  let* at = field "at" J.to_int j in
  match tag with
  | "crash" ->
    let* proc = field "proc" J.to_int j in
    Ok (Crash { at; proc })
  | "recover" ->
    let* proc = field "proc" J.to_int j in
    Ok (Recover { at; proc })
  | "partition" ->
    let* block = field "block" J.to_list j in
    let* block =
      List.fold_right
        (fun p acc ->
          let* acc = acc in
          match J.to_int p with
          | Some p -> Ok (p :: acc)
          | None -> Error "plan artifact: non-integer partition member")
        block (Ok [])
    in
    Ok (Partition { at; block })
  | "heal" -> Ok (Heal { at })
  | "omission-burst" ->
    let* until = field "until" J.to_int j in
    let* prob = float_field "prob" j in
    let* seed = field "seed" J.to_int j in
    Ok (Omission_burst { at; until; prob; seed })
  | "filter-window" ->
    let* until = field "until" J.to_int j in
    let* kind = field "kind" J.to_str j in
    let* src = endpoint_field "src" j in
    let* dst = endpoint_field "dst" j in
    Ok (Filter_window { at; until; kind; src; dst })
  | "slow-window" ->
    let* until = field "until" J.to_int j in
    let* prob = float_field "prob" j in
    let* delay_max = field "delay_max" J.to_int j in
    Ok (Slow_window { at; until; prob; delay_max })
  | "slow-member" ->
    let* until = field "until" J.to_int j in
    let* proc = field "proc" J.to_int j in
    let* prob = float_field "prob" j in
    let* delay_max = field "delay_max" J.to_int j in
    Ok (Slow_member { at; until; proc; prob; delay_max })
  | "storage-fault" ->
    let* until = field "until" J.to_int j in
    let* proc = endpoint_field "proc" j in
    let* fault =
      field "fault"
        (fun v -> Option.bind (J.to_str v) Storage.Store.fault_of_string)
        j
    in
    Ok (Storage_fault { at; until; proc; fault })
  | "link-window" ->
    let* until = field "until" J.to_int j in
    let* src = endpoint_field "src" j in
    let* dst = endpoint_field "dst" j in
    let* delay_min = field "delay_min" J.to_int j in
    let* delay_max = field "delay_max" J.to_int j in
    let* omission_prob = float_field "omission_prob" j in
    let* late_prob = float_field "late_prob" j in
    let* late_delay_max = field "late_delay_max" J.to_int j in
    Ok
      (Link_window
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
         })
  | tag -> Error (Fmt.str "plan artifact: unknown op %S" tag)

let of_json j =
  let* v = field "version" J.to_int j in
  if v <> version then Error (Fmt.str "plan artifact: unsupported version %d" v)
  else
    let* seed = field "seed" J.to_int j in
    let* n = field "n" J.to_int j in
    let* ops = field "ops" J.to_list j in
    let* ops =
      List.fold_right
        (fun op acc ->
          let* acc = acc in
          let* op = op_of_json op in
          Ok (op :: acc))
        ops (Ok [])
    in
    Ok { seed; n; ops }

let save path t = J.write_file path (to_json t)

let load path =
  let* j = J.read_file path in
  of_json j
