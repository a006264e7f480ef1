open Tasim

type config = { n : int; period : Time.t; timeout : Time.t }

let default_config ~n =
  { n; period = Time.of_ms 30; timeout = Time.of_ms 90 }

type msg =
  | Heartbeat of { ts : Time.t }
  | Propose of { view_id : int; group : Proc_set.t }
  | Ack of { view_id : int }
  | Commit of { view_id : int; group : Proc_set.t }

let kind_of_msg = function
  | Heartbeat _ -> "heartbeat"
  | Propose _ -> "propose"
  | Ack _ -> "ack"
  | Commit _ -> "commit"

type obs =
  | View_installed of { view_id : int; group : Proc_set.t }
  | Suspected of { suspect : Proc_id.t }

module Pmap = Proc_id.Map

type state = {
  cfg : config;
  self : Proc_id.t;
  last_beat : Time.t Pmap.t;
  suspected : Proc_set.t;
  view : (int * Proc_set.t) option;
  proposed : (int * Proc_set.t) option; (* as coordinator *)
  acks : Proc_set.t;
  next_view_id : int;
}

let timer_beat = 1
let timer_check = 2

let alive_of s ~clock =
  Pmap.fold
    (fun p ts acc ->
      if
        Time.compare (Time.sub clock ts) s.cfg.timeout <= 0
        && not (Proc_set.mem p s.suspected)
      then Proc_set.add p acc
      else acc)
    s.last_beat
    (Proc_set.singleton s.self)

let coordinator s ~clock =
  List.hd (Proc_set.to_list (alive_of s ~clock))

let init cfg ~self ~n:_ ~clock ~incarnation:_ =
  let s =
    {
      cfg;
      self;
      last_beat = Pmap.empty;
      suspected = Proc_set.empty;
      view = None;
      proposed = None;
      acks = Proc_set.empty;
      next_view_id = 1;
    }
  in
  ( s,
    [
      Engine.Broadcast (Heartbeat { ts = clock });
      Engine.Set_timer { key = timer_beat; at_clock = Time.add clock cfg.period };
      Engine.Set_timer
        { key = timer_check; at_clock = Time.add clock cfg.timeout };
    ] )

(* As coordinator, run a view change whenever the alive set differs from
   the committed view. *)
let maybe_propose s ~clock =
  let alive = alive_of s ~clock in
  let am_coordinator = Proc_id.equal (coordinator s ~clock) s.self in
  let current = match s.view with Some (_, g) -> g | None -> Proc_set.empty in
  let in_flight =
    match s.proposed with
    | Some (_, g) -> Proc_set.equal g alive
    | None -> false
  in
  if
    am_coordinator
    && (not (Proc_set.equal alive current))
    && (not in_flight)
    && Proc_set.is_majority alive ~n:s.cfg.n
  then begin
    let view_id = s.next_view_id in
    let s =
      {
        s with
        proposed = Some (view_id, alive);
        acks = Proc_set.singleton s.self;
        next_view_id = view_id + 1;
      }
    in
    (s, [ Engine.Broadcast (Propose { view_id; group = alive }) ])
  end
  else (s, [])

let check_suspicions s ~clock =
  let alive = alive_of s ~clock in
  let known =
    Pmap.fold (fun p _ acc -> Proc_set.add p acc) s.last_beat Proc_set.empty
  in
  let newly =
    Proc_set.filter
      (fun p -> not (Proc_set.mem p s.suspected))
      (Proc_set.diff known alive)
  in
  let effects =
    List.map
      (fun p -> Engine.Observe (Suspected { suspect = p }))
      (Proc_set.to_list newly)
  in
  let s = { s with suspected = Proc_set.union s.suspected newly } in
  (s, effects)

let on_timer s ~clock ~key =
  if key = timer_beat then
    ( s,
      [
        Engine.Broadcast (Heartbeat { ts = clock });
        Engine.Set_timer
          { key = timer_beat; at_clock = Time.add clock s.cfg.period };
      ] )
  else if key = timer_check then begin
    let s, suspect_effects = check_suspicions s ~clock in
    let s, propose_effects = maybe_propose s ~clock in
    ( s,
      suspect_effects @ propose_effects
      @ [
          Engine.Set_timer
            {
              key = timer_check;
              at_clock = Time.add clock (Time.div s.cfg.timeout 2);
            };
        ] )
  end
  else (s, [])

let on_receive s ~clock ~src msg =
  match msg with
  | Heartbeat { ts = _ } ->
    let s =
      {
        s with
        last_beat = Pmap.add src clock s.last_beat;
        suspected = Proc_set.remove src s.suspected;
      }
    in
    (s, [])
  | Propose { view_id; group } ->
    if Proc_set.mem s.self group then
      (s, [ Engine.Send (src, Ack { view_id }) ])
    else (s, [])
  | Ack { view_id } -> (
    match s.proposed with
    | Some (id, group) when id = view_id ->
      let acks = Proc_set.add src s.acks in
      let s = { s with acks } in
      if Proc_set.is_majority acks ~n:s.cfg.n then begin
        let s = { s with proposed = None; view = Some (view_id, group) } in
        ( s,
          [
            Engine.Broadcast (Commit { view_id; group });
            Engine.Observe (View_installed { view_id; group });
          ] )
      end
      else (s, [])
    | Some _ | None -> (s, []))
  | Commit { view_id; group } -> (
    match s.view with
    | Some (id, _) when id >= view_id -> (s, [])
    | Some _ | None ->
      if Proc_set.mem s.self group then
        ( { s with view = Some (view_id, group) },
          [ Engine.Observe (View_installed { view_id; group }) ] )
      else (s, []))

let automaton cfg =
  {
    Engine.name = "heartbeat-baseline";
    init = (fun ~self ~n ~clock ~incarnation -> init cfg ~self ~n ~clock ~incarnation);
    on_receive;
    on_timer;
  }
