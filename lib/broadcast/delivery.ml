open Tasim

type 'u delivery = { proposal : 'u Proposal.t; ordinal : int option }

(* The oal-wide conditions reduce to three frontiers, each the lowest
   ordinal of an update entry that still stands in the way:

   - order: a total or timed entry neither delivered nor undeliverable.
     A total or timed candidate at ordinal o is in order iff o is at or
     below it. Delivering moves it up, never down.
   - unreceived: an entry neither received nor undeliverable. A Strong
     candidate holds iff its hdo is below it.
   - unstable: an entry neither known stable nor undeliverable. A
     Strict candidate holds iff its hdo is below it.

   Membership entries stand in no way. Entries purged below oal.low are
   stable, hence in no way either. Each frontier is found by one
   early-exit walk, only when a candidate needs it; the order walk
   resumes where it stopped after a round of deliveries, since every
   entry below it is still resolved. [unknown] marks a frontier not
   walked yet. *)
type frontiers = {
  mutable order : int;
  mutable order_from : int;
  mutable unreceived : int;
  mutable unstable : int;
}

let unknown = -1

let frontiers () =
  { order = unknown; order_from = 0; unreceived = unknown; unstable = unknown }

let order_frontier fr ~oal ~buffers =
  if fr.order = unknown then begin
    let unresolved e =
      match e.Oal.body with
      | Oal.Membership _ -> false
      | Oal.Update info -> (
        match info.Oal.semantics.Semantics.ordering with
        | Semantics.Unordered -> false
        | Semantics.Total | Semantics.Timed ->
          not
            (e.Oal.undeliverable
            || Buffers.delivered buffers info.Oal.proposal_id))
    in
    fr.order <- Oal.first_from oal fr.order_from unresolved;
    fr.order_from <- fr.order
  end;
  fr.order

let unreceived_frontier fr ~oal ~buffers =
  if fr.unreceived = unknown then
    fr.unreceived <-
      Oal.first_from oal 0 (fun e ->
          match e.Oal.body with
          | Oal.Membership _ -> false
          | Oal.Update info ->
            not
              (e.Oal.undeliverable
              || Buffers.received buffers info.Oal.proposal_id));
  fr.unreceived

let unstable_frontier fr ~oal =
  if fr.unstable = unknown then
    fr.unstable <-
      Oal.first_from oal 0 (fun e ->
          match e.Oal.body with
          | Oal.Membership _ -> false
          | Oal.Update _ -> not (e.Oal.undeliverable || e.Oal.known_stable));
  fr.unstable

(* The verdict on one candidate, checks in the order [blocked_reason]
   reports them: general, timing, order, atomicity. Constant
   constructors, so a verdict allocates nothing. *)
type verdict =
  | Deliverable
  | Already_delivered
  | Marked_locally
  | Marked_in_oal
  | No_ordinal
  | Too_early
  | Order_blocked
  | Atomicity_blocked

let reason = function
  | Deliverable -> None
  | Already_delivered -> Some "already delivered"
  | Marked_locally -> Some "marked undeliverable locally"
  | Marked_in_oal -> Some "marked undeliverable in oal"
  | No_ordinal -> Some "no ordinal yet"
  | Too_early -> Some "timed delivery instant not reached"
  | Order_blocked -> Some "lower ordinal not yet delivered"
  | Atomicity_blocked -> Some "dependencies not satisfied (atomicity)"

(* General and timing conditions: fixed for the whole of a step, since
   a step delivers nothing a candidate's own checks read. [entry] is
   the candidate's oal entry. *)
let fixed_verdict ~buffers ~now_sync ~timed_delay (proposal : 'u Proposal.t)
    entry =
  let id = proposal.Proposal.id in
  let semantics = proposal.Proposal.semantics in
  if Buffers.delivered buffers id then Already_delivered
  else if Buffers.is_marked buffers id ~now:now_sync then Marked_locally
  else
    match (entry, semantics.Semantics.ordering) with
    | Some e, _ when e.Oal.undeliverable -> Marked_in_oal
    | None, (Semantics.Total | Semantics.Timed) -> No_ordinal
    | _, Semantics.Timed
      when Time.compare now_sync (Time.add proposal.Proposal.send_ts timed_delay)
           < 0 ->
      Too_early
    | _, (Semantics.Timed | Semantics.Total | Semantics.Unordered) ->
      Deliverable

(* Order, then atomicity. Only order changes between rounds. *)
let frontier_verdict fr ~oal ~buffers (proposal : 'u Proposal.t) entry =
  let semantics = proposal.Proposal.semantics in
  let in_order =
    match (semantics.Semantics.ordering, entry) with
    | Semantics.Unordered, _ -> true
    | (Semantics.Total | Semantics.Timed), Some e ->
      e.Oal.ordinal <= order_frontier fr ~oal ~buffers
    | (Semantics.Total | Semantics.Timed), None -> false
  in
  if not in_order then Order_blocked
  else
    let hdo = proposal.Proposal.hdo in
    let atomic =
      match semantics.Semantics.atomicity with
      | Semantics.Weak -> true
      | Semantics.Strong -> hdo < unreceived_frontier fr ~oal ~buffers
      | Semantics.Strict -> hdo < unstable_frontier fr ~oal
    in
    if atomic then Deliverable else Atomicity_blocked

let blocked_reason ~oal ~buffers ~now_sync ~timed_delay proposal =
  let entry = Oal.find_update oal proposal.Proposal.id in
  reason
    (match fixed_verdict ~buffers ~now_sync ~timed_delay proposal entry with
     | Deliverable -> frontier_verdict (frontiers ()) ~oal ~buffers proposal entry
     | v -> v)

let ordinal_of = function Some e -> Some e.Oal.ordinal | None -> None

(* unordered first (no ordinal), then by ordinal, ties by id *)
let compare_ready (pa, oa) (pb, ob) =
  match (oa, ob) with
  | None, Some _ -> -1
  | Some _, None -> 1
  | None, None -> Proposal.id_compare pa.Proposal.id pb.Proposal.id
  | Some a, Some b -> (
    match Int.compare a b with
    | 0 -> Proposal.id_compare pa.Proposal.id pb.Proposal.id
    | c -> c)

(* Rounds, as the conditions read: each round delivers every candidate
   deliverable against the buffers at its start, then the next round
   looks again. Only the order condition changes between rounds, so the
   first round checks every pending proposal and later rounds only
   those the order frontier held back. The delivery order is the
   round-by-round one. *)
let step ~oal ~buffers ~now_sync ~timed_delay =
  match Buffers.pending buffers with
  | [] -> ([], buffers)
  | pending ->
    let fr = frontiers () in
    let rec round buffers acc candidates =
      let ready, held =
        List.fold_left
          (fun (ready, held) (proposal, entry) ->
            match frontier_verdict fr ~oal ~buffers proposal entry with
            | Deliverable -> ((proposal, ordinal_of entry) :: ready, held)
            | Order_blocked -> (ready, (proposal, entry) :: held)
            | _ -> (ready, held) (* atomicity: fixed for the step *))
          ([], []) candidates
      in
      match ready with
      | [] -> (List.rev acc, buffers)
      | _ ->
        let buffers, acc =
          List.fold_left
            (fun (buffers, acc) (proposal, ordinal) ->
              ( Buffers.note_delivered buffers proposal.Proposal.id ~ordinal,
                { proposal; ordinal } :: acc ))
            (buffers, acc)
            (List.sort compare_ready ready)
        in
        fr.order <- unknown;
        round buffers acc held
    in
    let candidates =
      List.filter_map
        (fun (p : 'u Proposal.t) ->
          let entry = Oal.find_update oal p.Proposal.id in
          match fixed_verdict ~buffers ~now_sync ~timed_delay p entry with
          | Deliverable -> Some (p, entry)
          | _ -> None)
        pending
    in
    round buffers [] candidates
