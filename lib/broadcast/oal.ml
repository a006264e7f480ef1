open Tasim

type update_info = {
  proposal_id : Proposal.id;
  semantics : Semantics.t;
  send_ts : Time.t;
  hdo : int;
}

type body =
  | Update of update_info
  | Membership of { group : Proc_set.t; group_id : Group_id.t }

type entry = {
  ordinal : int;
  body : body;
  acks : Proc_set.t;
  undeliverable : bool;
  known_stable : bool;
}

module Imap = Map.Make (Int)

module Idmap = Map.Make (struct
  type t = Proposal.id

  let compare (a : Proposal.id) (b : Proposal.id) =
    match Proc_id.compare a.Proposal.origin b.Proposal.origin with
    | 0 -> Int.compare a.Proposal.seq b.Proposal.seq
    | c -> c
end)

type t = {
  entries : entry Imap.t;
  low : int;
  next_ordinal : int;
  current : (int * Proc_set.t * Group_id.t) option;
      (* newest membership: (ordinal, group, group id) — kept as a
         field so the descriptor entry itself can be purged once
         stable *)
  index : int Idmap.t;
      (* proposal id -> ordinal of its update descriptor, so
         [find_update]/[mem_update]/[ack_update] — the retransmission
         and acknowledgement hot paths — do one map lookup instead of
         a full scan of the list. Lookups verify the target entry still
         carries the id (merges of adversarial wire data could shadow a
         mapping) and fall back to the scan, so the index is purely an
         accelerator and never changes observable behavior. *)
}

let empty =
  {
    entries = Imap.empty;
    low = 0;
    next_ordinal = 0;
    current = None;
    index = Idmap.empty;
  }

let low t = t.low
let next_ordinal t = t.next_ordinal
let entries t = List.map snd (Imap.bindings t.entries)
let iter_entries t f = Imap.iter (fun _ e -> f e) t.entries

(* the callback goes to the map unwrapped, so a statically allocated
   callback makes the traversal allocation-free (codec send path) *)
let iter_entries_ord t f = Imap.iter f t.entries
let cardinal t = Imap.cardinal t.entries
let is_empty t = Imap.is_empty t.entries

let index_body index ordinal = function
  | Update info -> Idmap.add info.proposal_id ordinal index
  | Membership _ -> index

let append t body ~acks =
  let ordinal = t.next_ordinal in
  let entry =
    { ordinal; body; acks; undeliverable = false; known_stable = false }
  in
  ( { t with
      entries = Imap.add ordinal entry t.entries;
      next_ordinal = ordinal + 1;
      index = index_body t.index ordinal body;
    },
    ordinal )

let append_update t info ~acks = append t (Update info) ~acks

let append_membership t ~group ~group_id =
  (* the creating decider has, by definition, the membership change *)
  let t, ordinal = append t (Membership { group; group_id }) ~acks:Proc_set.empty in
  ({ t with current = Some (ordinal, group, group_id) }, ordinal)

let entry_at t ordinal = Imap.find_opt ordinal t.entries

let scan_update t id =
  Imap.fold
    (fun _ e acc ->
      match acc with
      | Some _ -> acc
      | None -> (
        match e.body with
        | Update info when Proposal.id_equal info.proposal_id id -> Some e
        | Update _ | Membership _ -> None))
    t.entries None

let find_update t id =
  match Idmap.find_opt id t.index with
  | Some ordinal -> (
    match Imap.find_opt ordinal t.entries with
    | Some ({ body = Update info; _ } as e)
      when Proposal.id_equal info.proposal_id id ->
      Some e
    | Some _ | None ->
      (* stale or shadowed mapping (only reachable through merges of
         ill-formed wire lists) — answer exactly as the scan would *)
      scan_update t id)
  | None ->
    (* the index maps every update id present in the entries (append,
       merge and of_wire all maintain it; purge removes exactly the
       purged entry's mapping), so a miss means the id is absent *)
    None

let mem_update t id = Option.is_some (find_update t id)

exception Found of int

(* An ascending walk that stops at the first match, not the index: the
   index may name a later duplicate, or miss an id a merge of
   ill-formed wire lists left behind. *)
let first_update_ordinal t id =
  match
    Imap.iter
      (fun ordinal e ->
        match e.body with
        | Update info when Proposal.id_equal info.proposal_id id ->
          raise_notrace (Found ordinal)
        | Update _ | Membership _ -> ())
      t.entries
  with
  | () -> None
  | exception Found ordinal -> Some ordinal

let first_from t from p =
  match
    Imap.iter
      (fun ordinal e -> if ordinal >= from && p e then raise_notrace (Found ordinal))
      t.entries
  with
  | () -> max_int
  | exception Found ordinal -> ordinal

let highest_ordinal t =
  match Imap.max_binding_opt t.entries with
  | Some (ordinal, _) -> ordinal
  | None -> t.next_ordinal - 1

let latest_membership t = t.current

let update_entry t ordinal f =
  match Imap.find_opt ordinal t.entries with
  | None -> t
  | Some e -> { t with entries = Imap.add ordinal (f e) t.entries }

let ack_update t id p =
  match find_update t id with
  | None -> t
  | Some e ->
    update_entry t e.ordinal (fun e -> { e with acks = Proc_set.add p e.acks })

(* Rewrite only the entries [f] changes ([f] returns the entry itself
   when it leaves it alone); an oal with no change comes back
   physically equal, with no map rebuilt. *)
let map_changed t f =
  let entries =
    Imap.fold
      (fun ordinal e acc ->
        let e' = f e in
        if e' == e then acc else Imap.add ordinal e' acc)
      t.entries t.entries
  in
  if entries == t.entries then t else { t with entries }

let mark_stable t stable =
  map_changed t (fun e ->
      if e.known_stable || not (stable e) then e
      else { e with known_stable = true })

(* one walk over the entries: a fold of per-ordinal updates would copy
   a map path per acked entry *)
let add_acks t ~by acked =
  let gains ordinal e = acked ordinal && not (Proc_set.mem by e.acks) in
  if not (Imap.exists gains t.entries) then t
  else
    {
      t with
      entries =
        Imap.mapi
          (fun ordinal e ->
            if gains ordinal e then { e with acks = Proc_set.add by e.acks }
            else e)
          t.entries;
    }

let purge_stable t ~delivered =
  (* the current group survives purging in the [current] field, so a
     stable membership descriptor is as purgeable as a delivered
     update *)
  let purgeable e =
    e.known_stable
    &&
    match e.body with
    | Update _ -> delivered e.ordinal || e.undeliverable
    | Membership _ -> true
  in
  let unindex index (e : entry) =
    match e.body with
    | Update info -> (
      match Idmap.find_opt info.proposal_id index with
      | Some o when o = e.ordinal -> Idmap.remove info.proposal_id index
      | Some _ | None -> index)
    | Membership _ -> index
  in
  let rec advance t =
    match Imap.find_opt t.low t.entries with
    | Some e when purgeable e ->
      advance
        {
          t with
          entries = Imap.remove t.low t.entries;
          low = t.low + 1;
          index = unindex t.index e;
        }
    | Some _ | None -> t
  in
  advance t

type wire = {
  w_low : int;
  w_next_ordinal : int;
  w_entries : entry list;
  w_latest : (int * Proc_set.t * Group_id.t) option;
}

let to_wire t =
  {
    w_low = t.low;
    w_next_ordinal = t.next_ordinal;
    w_entries = entries t;
    w_latest = t.current;
  }

let of_wire w =
  if w.w_low < 0 then Error "oal wire: negative low"
  else if w.w_next_ordinal < w.w_low then Error "oal wire: next < low"
  else
    let rec build prev entries = function
      | [] -> Ok entries
      | e :: rest ->
        if e.ordinal <= prev then Error "oal wire: ordinals not increasing"
        else if e.ordinal < w.w_low then Error "oal wire: entry below low"
        else if e.ordinal >= w.w_next_ordinal then
          Error "oal wire: entry beyond next ordinal"
        else build e.ordinal (Imap.add e.ordinal e entries) rest
    in
    match build (w.w_low - 1) Imap.empty w.w_entries with
    | Error _ as e -> e
    | Ok entries ->
      let index =
        Imap.fold (fun ordinal e acc -> index_body acc ordinal e.body) entries
          Idmap.empty
      in
      Ok
        {
          entries;
          low = w.w_low;
          next_ordinal = w.w_next_ordinal;
          current = w.w_latest;
          index;
        }

let mark_undeliverable t id =
  match find_update t id with
  | None -> t
  | Some e ->
    update_entry t e.ordinal (fun e -> { e with undeliverable = true })

let undeliverable_ids t =
  Imap.fold
    (fun _ e acc ->
      match e.body with
      | Update info when e.undeliverable -> info.proposal_id :: acc
      | Update _ | Membership _ -> acc)
    t.entries []
  |> List.rev

let body_equal a b =
  match (a, b) with
  | Update x, Update y ->
    Proposal.id_equal x.proposal_id y.proposal_id
    && Semantics.equal x.semantics y.semantics
    && Time.equal x.send_ts y.send_ts && x.hdo = y.hdo
  | Membership m1, Membership m2 ->
    Proc_set.equal m1.group m2.group && Group_id.equal m1.group_id m2.group_id
  | Update _, Membership _ | Membership _, Update _ -> false

let merge_general ~local ~incoming =
  (* local entries below the incoming purge frontier are known stable.
     Local entries all have ordinal >= local.low (purging drops them),
     so when the incoming frontier is not ahead of ours no local entry
     qualifies and the rebuild is skipped — the common steady-state
     case where decider and receiver purge in lockstep. *)
  let entries =
    if incoming.low <= local.low then local.entries
    else
      let below, _, _ = Imap.split incoming.low local.entries in
      Imap.fold
        (fun ordinal e acc ->
          if e.known_stable then acc
          else Imap.add ordinal { e with known_stable = true } acc)
        below local.entries
  in
  (* merge-path indexing: in steady state the incoming entries repeat
     what local already holds, so check before rebuilding O(log k) of
     index spine per entry; the add still runs whenever the merged
     entry's id is new or moved, keeping the index complete *)
  let index_merged index ordinal = function
    | Update info -> (
      match Idmap.find_opt info.proposal_id index with
      | Some o when o = ordinal -> index
      | Some _ | None -> Idmap.add info.proposal_id ordinal index)
    | Membership _ -> index
  in
  (* incoming entries are authoritative from local.low upwards *)
  let authoritative =
    if incoming.low >= local.low then incoming.entries
    else
      let _, at, above = Imap.split local.low incoming.entries in
      match at with Some e -> Imap.add local.low e above | None -> above
  in
  let index =
    Imap.fold
      (fun ordinal inc index -> index_merged index ordinal inc.body)
      authoritative local.index
  in
  (* one walk over both maps, where adding entry by entry would copy a
     map path per incoming entry *)
  let entries =
    Imap.union
      (fun _ mine inc ->
        Some
          {
            inc with
            acks = Proc_set.union mine.acks inc.acks;
            undeliverable = mine.undeliverable || inc.undeliverable;
            known_stable = mine.known_stable || inc.known_stable;
          })
      entries authoritative
  in
  let current =
    match (local.current, incoming.current) with
    | Some (_, _, g1), Some (_, _, g2) when Group_id.compare g2 g1 >= 0 ->
      incoming.current
    | Some _, Some _ -> local.current
    | Some c, None | None, Some c -> Some c
    | None, None -> None
  in
  {
    entries;
    low = local.low;
    next_ordinal = max local.next_ordinal incoming.next_ordinal;
    current;
    index;
  }

(* The covered case: every local entry at or above the incoming
   frontier is in the incoming list with an equal body, a subset of its
   acks and no flag the incoming entry lacks; [next_ordinal] does not go
   back; and the incoming membership memo wins. The general merge then
   rebuilds each such entry into a copy of the incoming one, so the
   incoming list itself is the result, plus the local entries below the
   incoming frontier, marked stable. A receiver whose list came from
   the previous decision is covered by the next one unless it changed an
   entry the decider has not seen. *)
let covered ~local ~incoming =
  local.next_ordinal <= incoming.next_ordinal
  && (match (local.current, incoming.current) with
     | Some (_, _, g1), Some (_, _, g2) -> Group_id.compare g2 g1 >= 0
     | None, _ -> true
     | Some _, None -> false)
  && Imap.for_all
       (fun ordinal mine ->
         ordinal < incoming.low
         ||
         match Imap.find ordinal incoming.entries with
         | exception Not_found -> false
         | inc ->
           inc == mine
           || (mine.body == inc.body || body_equal mine.body inc.body)
              && Proc_set.subset mine.acks inc.acks
              && ((not mine.undeliverable) || inc.undeliverable)
              && ((not mine.known_stable) || inc.known_stable))
       local.entries

let merge ~local ~incoming =
  if incoming.low < local.low || not (covered ~local ~incoming) then
    merge_general ~local ~incoming
  else if incoming.low = local.low then incoming
  else
    let below, _, _ = Imap.split incoming.low local.entries in
    let entries, index =
      Imap.fold
        (fun ordinal e (entries, index) ->
          ( Imap.add ordinal
              (if e.known_stable then e else { e with known_stable = true })
              entries,
            match e.body with
            | Update { proposal_id; _ } when not (Idmap.mem proposal_id index)
              -> (
              match Idmap.find_opt proposal_id local.index with
              | Some o -> Idmap.add proposal_id o index
              | None -> index)
            | Update _ | Membership _ -> index ))
        below
        (incoming.entries, incoming.index)
    in
    { incoming with entries; index; low = local.low }

let is_prefix a ~of_ =
  Imap.for_all
    (fun ordinal ea ->
      if ordinal < of_.low then true
      else
        match Imap.find_opt ordinal of_.entries with
        | None -> false
        | Some eb -> body_equal ea.body eb.body)
    a.entries

let pp_entry ppf e =
  let mark =
    if e.undeliverable then "!" else if e.known_stable then "*" else ""
  in
  match e.body with
  | Update info ->
    Fmt.pf ppf "%d%s:%a(acks=%a)" e.ordinal mark Proposal.pp_id
      info.proposal_id Proc_set.pp e.acks
  | Membership { group; group_id } ->
    Fmt.pf ppf "%d%s:grp#%a%a" e.ordinal mark Group_id.pp group_id Proc_set.pp
      group

let pp ppf t =
  Fmt.pf ppf "oal[low=%d next=%d %a]" t.low t.next_ordinal
    Fmt.(list ~sep:sp pp_entry)
    (entries t)

(* [of_wire] for a decoder that parsed the entries into a reusable
   scratch array instead of a list: same validation, same result, no
   intermediate list cells. [entry i] must return the i-th wire entry
   in the order read (increasing ordinal for a well-formed frame). *)
let of_wire_indexed ~low ~next_ordinal ~latest ~count ~entry =
  if low < 0 then Error "oal wire: negative low"
  else if next_ordinal < low then Error "oal wire: next < low"
  else if count < 0 then Error "oal wire: negative entry count"
  else begin
    let rec build i prev entries =
      if i >= count then Ok entries
      else begin
        let e = entry i in
        if e.ordinal <= prev then Error "oal wire: ordinals not increasing"
        else if e.ordinal < low then Error "oal wire: entry below low"
        else if e.ordinal >= next_ordinal then
          Error "oal wire: entry beyond next ordinal"
        else build (i + 1) e.ordinal (Imap.add e.ordinal e entries)
      end
    in
    match build 0 (low - 1) Imap.empty with
    | Error _ as e -> e
    | Ok entries ->
      let index =
        Imap.fold
          (fun ordinal e acc -> index_body acc ordinal e.body)
          entries Idmap.empty
      in
      Ok { entries; low; next_ordinal; current = latest; index }
  end
