open Tasim

type 'u delivery = { proposal : 'u Proposal.t; ordinal : int option }

(* An oal update entry counts as "resolved" for ordering purposes when
   it no longer stands in the way: delivered locally or marked
   undeliverable. Membership entries never block update delivery. *)
let entry_resolved ~buffers entry =
  match entry.Oal.body with
  | Oal.Membership _ -> true
  | Oal.Update info ->
    entry.undeliverable
    || Buffers.delivered buffers info.Oal.proposal_id

let order_ok ~oal ~buffers entry =
  let lower_ordered_resolved e =
    e.Oal.ordinal >= entry.Oal.ordinal
    ||
    match e.Oal.body with
    | Oal.Membership _ -> true
    | Oal.Update info -> (
      match info.Oal.semantics.Semantics.ordering with
      | Semantics.Unordered -> true
      | Semantics.Total | Semantics.Timed -> entry_resolved ~buffers e)
  in
  List.for_all lower_ordered_resolved (Oal.entries oal)

(* Strong: dependencies (ordinal <= hdo) received locally.
   Strict: dependencies stable. Entries purged below oal.low are stable
   by construction, hence satisfy both. *)
let atomicity_ok ~oal ~buffers ~(proposal : 'u Proposal.t) =
  let hdo = proposal.Proposal.hdo in
  let dep_ok strictness e =
    e.Oal.ordinal > hdo
    ||
    match e.Oal.body with
    | Oal.Membership _ -> true
    | Oal.Update info -> (
      e.undeliverable
      ||
      match strictness with
      | `Received ->
        Buffers.received buffers info.Oal.proposal_id
        || Buffers.delivered buffers info.Oal.proposal_id
      | `Stable -> e.known_stable)
  in
  match proposal.Proposal.semantics.Semantics.atomicity with
  | Semantics.Weak -> true
  | Semantics.Strong -> List.for_all (dep_ok `Received) (Oal.entries oal)
  | Semantics.Strict -> List.for_all (dep_ok `Stable) (Oal.entries oal)

let general_check ~oal ~buffers ~now_sync (proposal : 'u Proposal.t) =
  let id = proposal.Proposal.id in
  if Buffers.delivered buffers id then Some "already delivered"
  else if Buffers.is_marked buffers id ~now:now_sync then
    Some "marked undeliverable locally"
  else
    match Oal.find_update oal id with
    | Some entry when entry.Oal.undeliverable ->
      Some "marked undeliverable in oal"
    | Some _ -> None
    | None -> (
      match proposal.Proposal.semantics.Semantics.ordering with
      | Semantics.Unordered -> None (* may be delivered before ordering *)
      | Semantics.Total | Semantics.Timed -> Some "no ordinal yet")

let timing_check ~now_sync ~timed_delay (proposal : 'u Proposal.t) =
  match proposal.Proposal.semantics.Semantics.ordering with
  | Semantics.Timed
    when Time.compare now_sync
           (Time.add proposal.Proposal.send_ts timed_delay)
         < 0 ->
    Some "timed delivery instant not reached"
  | Semantics.Timed | Semantics.Total | Semantics.Unordered -> None

let blocked_reason ~oal ~buffers ~now_sync ~timed_delay proposal =
  match general_check ~oal ~buffers ~now_sync proposal with
  | Some r -> Some r
  | None -> (
    match timing_check ~now_sync ~timed_delay proposal with
    | Some r -> Some r
    | None ->
      let entry = Oal.find_update oal proposal.Proposal.id in
      let order_fine =
        match (proposal.Proposal.semantics.Semantics.ordering, entry) with
        | Semantics.Unordered, _ -> true
        | (Semantics.Total | Semantics.Timed), Some e ->
          order_ok ~oal ~buffers e
        | (Semantics.Total | Semantics.Timed), None -> false
      in
      if not order_fine then Some "lower ordinal not yet delivered"
      else if not (atomicity_ok ~oal ~buffers ~proposal) then
        Some "dependencies not satisfied (atomicity)"
      else None)

let deliverable_now ~oal ~buffers ~now_sync ~timed_delay proposal =
  blocked_reason ~oal ~buffers ~now_sync ~timed_delay proposal = None

let step ~oal ~buffers ~now_sync ~timed_delay =
  let rec round buffers acc =
    (* delivered payloads retained for retransmission are never
       candidates ("already delivered"), so only the pending ones are
       checked *)
    let candidates = Buffers.pending buffers in
    let ready =
      List.filter (deliverable_now ~oal ~buffers ~now_sync ~timed_delay)
        candidates
    in
    (* unordered first (no ordinal), then ordered by ordinal *)
    let with_ordinal p =
      match Oal.find_update oal p.Proposal.id with
      | Some e -> (p, Some e.Oal.ordinal)
      | None -> (p, None)
    in
    let ready = List.map with_ordinal ready in
    let key (p, o) =
      match o with
      | None -> (0, 0, p.Proposal.id)
      | Some ordinal -> (1, ordinal, p.Proposal.id)
    in
    let ready =
      List.sort
        (fun a b ->
          let ka, oa, ia = key a and kb, ob, ib = key b in
          match Int.compare ka kb with
          | 0 -> (
            match Int.compare oa ob with
            | 0 -> Proposal.id_compare ia ib
            | c -> c)
          | c -> c)
        ready
    in
    match ready with
    | [] -> (List.rev acc, buffers)
    | _ ->
      let buffers, acc =
        List.fold_left
          (fun (buffers, acc) (proposal, ordinal) ->
            ( Buffers.note_delivered buffers proposal.Proposal.id ~ordinal,
              { proposal; ordinal } :: acc ))
          (buffers, acc) ready
      in
      round buffers acc
  in
  round buffers []
