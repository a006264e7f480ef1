open Tasim

type config = {
  n : int;
  hold : Time.t;
  token_timeout_factor : int;
  gather_period : Time.t;
}

let default_config ~n =
  {
    n;
    hold = Time.of_ms 10;
    token_timeout_factor = 2;
    gather_period = Time.of_ms 40;
  }

type msg =
  | Token of { ring_id : int; seq : int; members : Proc_set.t }
  | Join_msg of { ring_id : int; set : Proc_set.t }

let kind_of_msg = function
  | Token _ -> "token"
  | Join_msg _ -> "tr-join"

type obs =
  | Ring_installed of { ring_id : int; members : Proc_set.t }
  | Token_lost

module Pmap = Proc_id.Map

type mode =
  | Operational
  | Gathering of { sets : (Time.t * Proc_set.t) Pmap.t }

type state = {
  cfg : config;
  self : Proc_id.t;
  ring_id : int; (* highest ring id seen *)
  members : Proc_set.t; (* current ring, when operational *)
  mode : mode;
  holding : (int * Proc_set.t) option; (* token data while held *)
}

let timer_pass = 1
let timer_token_timeout = 2
let timer_gather = 3

let ring_of s =
  match s.mode with
  | Operational -> Some (s.ring_id, s.members)
  | Gathering _ -> None

let is_operational s =
  match s.mode with Operational -> true | Gathering _ -> false

let token_timeout s =
  Time.mul s.cfg.hold (s.cfg.n * s.cfg.token_timeout_factor)

(* Enter (or restart) the gather state: broadcast our current set and
   keep doing so periodically. *)
let enter_gather s ~clock ~initial =
  let sets = Pmap.empty in
  let s = { s with mode = Gathering { sets }; holding = None } in
  let effects =
    [
      Engine.Broadcast
        (Join_msg { ring_id = s.ring_id; set = Proc_set.singleton s.self });
      Engine.Set_timer
        { key = timer_gather; at_clock = Time.add clock s.cfg.gather_period };
      Engine.Cancel_timer timer_pass;
      Engine.Cancel_timer timer_token_timeout;
    ]
  in
  if initial then (s, effects) else (s, Engine.Observe Token_lost :: effects)

let my_set s ~clock =
  match s.mode with
  | Operational -> Proc_set.singleton s.self
  | Gathering { sets } ->
    Pmap.fold
      (fun p (at, set) acc ->
        (* only recent reporters count towards the merged set *)
        if Time.compare (Time.sub clock at) (Time.mul s.cfg.gather_period 3) <= 0
        then Proc_set.union (Proc_set.add p acc) set
        else acc)
      sets
      (Proc_set.singleton s.self)

(* Consensus: every process in my merged set recently reported exactly
   that set. The lowest id installs the ring. *)
let try_install s ~clock =
  match s.mode with
  | Operational -> None
  | Gathering { sets } ->
    let merged = my_set s ~clock in
    let agrees p =
      Proc_id.equal p s.self
      ||
      match Pmap.find_opt p sets with
      | Some (at, set) ->
        Time.compare (Time.sub clock at) (Time.mul s.cfg.gather_period 3) <= 0
        && Proc_set.equal (Proc_set.add p set) merged
      | None -> false
    in
    if
      Proc_set.cardinal merged >= 1
      && Proc_set.for_all agrees merged
      && Proc_id.equal (List.hd (Proc_set.to_list merged)) s.self
      && Proc_set.cardinal merged > 1
    then Some merged
    else None

let install s ~clock merged =
  let ring_id = s.ring_id + 1 in
  let s = { s with ring_id; members = merged; mode = Operational } in
  let successor =
    match Proc_set.successor_in merged s.self ~n:s.cfg.n with
    | Some p -> p
    | None -> s.self
  in
  ( { s with holding = None },
    [
      Engine.Observe (Ring_installed { ring_id; members = merged });
      Engine.Send (successor, Token { ring_id; seq = 0; members = merged });
      Engine.Set_timer
        {
          key = timer_token_timeout;
          at_clock = Time.add clock (token_timeout s);
        };
      Engine.Cancel_timer timer_gather;
    ] )

let init cfg ~self ~n:_ ~clock ~incarnation:_ =
  let s =
    {
      cfg;
      self;
      ring_id = 0;
      members = Proc_set.singleton self;
      mode = Gathering { sets = Pmap.empty };
      holding = None;
    }
  in
  let s, effects = enter_gather s ~clock ~initial:true in
  (s, effects)

let on_token s ~clock ~ring_id ~seq ~members =
  if ring_id < s.ring_id then (s, [])
  else begin
    let changed =
      ring_id > s.ring_id || not (Proc_set.equal members s.members)
    in
    let was_gathering = not (is_operational s) in
    let s = { s with ring_id; members; mode = Operational } in
    let install_obs =
      if changed || was_gathering then
        [ Engine.Observe (Ring_installed { ring_id; members }) ]
      else []
    in
    (* hold the token briefly, then pass it on *)
    let s = { s with holding = Some (seq, members) } in
    ( s,
      install_obs
      @ [
          Engine.Set_timer
            { key = timer_pass; at_clock = Time.add clock s.cfg.hold };
          Engine.Set_timer
            {
              key = timer_token_timeout;
              at_clock = Time.add clock (token_timeout s);
            };
          Engine.Cancel_timer timer_gather;
        ] )
  end

let on_join s ~clock ~src ~ring_id:_ ~set =
  match s.mode with
  | Operational ->
    (* a foreign join message: somebody is outside our ring — fall back
       to gather so the rings merge (Totem's foreign-message rule) *)
    if Proc_set.mem src s.members then (s, [])
    else enter_gather s ~clock ~initial:false
  | Gathering { sets } ->
    let sets = Pmap.add src (clock, set) sets in
    let s = { s with mode = Gathering { sets } } in
    (match try_install s ~clock with
    | Some merged -> install s ~clock merged
    | None -> (s, []))

let on_timer s ~clock ~key =
  if key = timer_pass then begin
    match (s.mode, s.holding) with
    | Operational, Some (seq, members) ->
      let successor =
        match Proc_set.successor_in members s.self ~n:s.cfg.n with
        | Some p -> p
        | None -> s.self
      in
      let s = { s with holding = None } in
      if Proc_id.equal successor s.self then (s, [])
      else
        ( s,
          [
            Engine.Send
              ( successor,
                Token { ring_id = s.ring_id; seq = seq + 1; members } );
          ] )
    | _ -> (s, [])
  end
  else if key = timer_token_timeout then begin
    match s.mode with
    | Operational -> enter_gather s ~clock ~initial:false
    | Gathering _ -> (s, [])
  end
  else if key = timer_gather then begin
    match s.mode with
    | Operational -> (s, [])
    | Gathering _ ->
      let set = my_set s ~clock in
      let effects =
        [
          Engine.Broadcast (Join_msg { ring_id = s.ring_id; set });
          Engine.Set_timer
            {
              key = timer_gather;
              at_clock = Time.add clock s.cfg.gather_period;
            };
        ]
      in
      (match try_install s ~clock with
      | Some merged ->
        let s, install_effects = install s ~clock merged in
        (s, install_effects)
      | None -> (s, effects))
  end
  else (s, [])

let on_receive s ~clock ~src msg =
  match msg with
  | Token { ring_id; seq; members } -> on_token s ~clock ~ring_id ~seq ~members
  | Join_msg { ring_id; set } -> on_join s ~clock ~src ~ring_id ~set

let automaton cfg =
  {
    Engine.name = "token-ring-baseline";
    init = (fun ~self ~n ~clock ~incarnation -> init cfg ~self ~n ~clock ~incarnation);
    on_receive;
    on_timer;
  }
