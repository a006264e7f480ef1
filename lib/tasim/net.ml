type config = {
  delta : Time.t;
  delay_min : Time.t;
  delay_max : Time.t;
  omission_prob : float;
  late_prob : float;
  late_delay_max : Time.t;
}

let default_config =
  {
    delta = Time.of_ms 10;
    delay_min = Time.of_ms 1;
    delay_max = Time.of_ms 8;
    omission_prob = 0.0;
    late_prob = 0.0;
    late_delay_max = Time.of_ms 50;
  }

let validate_config c =
  if c.delay_min < Time.zero then Error "delay_min must be >= 0"
  else if c.delay_max < c.delay_min then Error "delay_max < delay_min"
  else if c.delay_max > c.delta then Error "delay_max must be <= delta"
  else if c.omission_prob < 0.0 || c.omission_prob > 1.0 then
    Error "omission_prob out of [0,1]"
  else if c.late_prob < 0.0 || c.late_prob > 1.0 then
    Error "late_prob out of [0,1]"
  else if c.late_prob > 0.0 && c.late_delay_max <= c.delta then
    Error "late_delay_max must be > delta"
  else Ok ()

type 'm filter = {
  name : string;
  pred : src:Proc_id.t -> dst:Proc_id.t -> 'm -> bool;
  mutable remaining : int; (* -1 = unlimited *)
}

type 'm t = {
  cfg : config;
  rng : Rng.t;
  mutable partition : Proc_set.t list option;
  (* [filters] is the registration-order list consulted on every
     datagram; [filters_rev] is its reversed twin, prepended to on
     registration (rare) and materialized into [filters] once per
     change, so neither path is quadratic *)
  mutable filters : 'm filter list;
  mutable filters_rev : 'm filter list;
  (* the timeliness graph: per-directed-link effective configs layered
     over [cfg], keyed by [link_key]. [links_count] keeps the empty
     case (every existing experiment) a single int compare on the hot
     path; with no overrides installed the rng draw sequence is
     bit-identical to the pre-timeliness-graph code *)
  links : (int, config) Hashtbl.t;
  mutable links_count : int;
}

let create cfg rng =
  (match validate_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Net.create: " ^ msg));
  {
    cfg;
    rng;
    partition = None;
    filters = [];
    filters_rev = [];
    links = Hashtbl.create 16;
    links_count = 0;
  }

let config t = t.cfg

type fate = Deliver_after of Time.t | Dropped of string

let set_partition t blocks =
  (* overlapping blocks make [same_block] order-dependent; reject them
     loudly rather than silently privileging the first block *)
  let rec check_disjoint = function
    | [] -> ()
    | b :: rest ->
      List.iter
        (fun b' ->
          if not (Proc_set.is_empty (Proc_set.inter b b')) then
            invalid_arg "Net.set_partition: blocks overlap")
        rest;
      check_disjoint rest
  in
  check_disjoint blocks;
  t.partition <- Some blocks

let heal t = t.partition <- None

(* A process absent from every block is an implicit singleton block:
   it can reach itself and nobody else. The old behaviour dropped even
   the self-loop and, more importantly, was undocumented — topology
   scenarios that name subsets (say the two slow datacenters) rely on
   the singleton semantics being explicit. *)
let same_block t a b =
  match t.partition with
  | None -> true
  | Some blocks -> (
    match List.find_opt (Proc_set.mem a) blocks with
    | Some block -> Proc_set.mem b block
    | None -> Proc_id.equal a b)

(* ------------------------------------------------------------------ *)
(* Per-link timeliness overrides *)

(* proc ids are small nonnegative ints (teams max out at a few
   thousand), so a directed link packs into one int key *)
let link_key src dst = (Proc_id.to_int src lsl 20) lor Proc_id.to_int dst

let link_config t ~src ~dst =
  if t.links_count = 0 then t.cfg
  else
    try Hashtbl.find t.links (link_key src dst) with Not_found -> t.cfg

let set_link t ~src ~dst ?delay_min ?delay_max ?omission_prob ?late_prob
    ?late_delay_max () =
  let base = t.cfg in
  let value o d = match o with Some v -> v | None -> d in
  let c =
    {
      delta = base.delta;
      delay_min = value delay_min base.delay_min;
      delay_max = value delay_max base.delay_max;
      omission_prob = value omission_prob base.omission_prob;
      late_prob = value late_prob base.late_prob;
      late_delay_max = value late_delay_max base.late_delay_max;
    }
  in
  (match validate_config c with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Net.set_link: " ^ msg));
  let key = link_key src dst in
  if not (Hashtbl.mem t.links key) then t.links_count <- t.links_count + 1;
  Hashtbl.replace t.links key c

let clear_link t ~src ~dst =
  let key = link_key src dst in
  if Hashtbl.mem t.links key then begin
    Hashtbl.remove t.links key;
    t.links_count <- t.links_count - 1
  end

let clear_links t =
  Hashtbl.reset t.links;
  t.links_count <- 0

let links_overridden t = t.links_count

(* ------------------------------------------------------------------ *)
(* Filters *)

let refresh_filters t = t.filters <- List.rev t.filters_rev

let add_filter t ?(max_drops = -1) ~name pred =
  if max_drops <> 0 then begin
    t.filters_rev <- { name; pred; remaining = max_drops } :: t.filters_rev;
    refresh_filters t
  end

let remove_filter t ~name =
  t.filters_rev <- List.filter (fun f -> f.name <> name) t.filters_rev;
  refresh_filters t

let clear_filters t =
  t.filters <- [];
  t.filters_rev <- []

let active_filters t = List.map (fun f -> f.name) t.filters

let matching_filter t ~src ~dst msg =
  let matches f =
    f.remaining <> 0 && f.pred ~src ~dst msg
    && begin
         if f.remaining > 0 then f.remaining <- f.remaining - 1;
         true
       end
  in
  match List.find_opt matches t.filters with
  | Some f as hit ->
    (* drop exhausted filters so they are never consulted again *)
    if f.remaining = 0 then begin
      t.filters_rev <- List.filter (fun g -> g != f) t.filters_rev;
      refresh_filters t
    end;
    hit
  | None -> None

let fate t ~src ~dst msg =
  (* the partition verdict comes first: a message a partition would
     drop anyway must not consume a bounded filter's [max_drops]
     budget (and [matching_filter] mutates that budget as it
     matches) *)
  if not (same_block t src dst) then Dropped "partition"
  else
    match matching_filter t ~src ~dst msg with
    | Some f -> Dropped ("filter:" ^ f.name)
    | None ->
      (* the effective config of this directed link; picking it draws
         no randomness, so unoverridden links (and runs with no
         overrides at all) see exactly the global-config stream *)
      let cfg = link_config t ~src ~dst in
      if Rng.bool t.rng cfg.omission_prob then Dropped "omission"
      else if Rng.bool t.rng cfg.late_prob then
        (* performance failure: delay strictly greater than delta *)
        let lo = Time.add cfg.delta (Time.of_us 1) in
        Deliver_after (Rng.uniform_time t.rng lo cfg.late_delay_max)
      else
        Deliver_after (Rng.uniform_time t.rng cfg.delay_min cfg.delay_max)
