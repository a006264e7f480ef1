open Tasim
open Broadcast

type category = Lost | Orphan_order | Orphan_atomicity | Unknown_dependency

module Id_map = Proposal.Id_map

let classify ~oal ~departed ~highest_known_ordinal =
  (* candidate entries: update descriptors proposed by departed members *)
  let candidates =
    List.filter_map
      (fun e ->
        match e.Oal.body with
        | Oal.Update info
          when Proc_set.mem info.Oal.proposal_id.Proposal.origin departed ->
          Some (e, info)
        | Oal.Update _ | Oal.Membership _ -> None)
      (Oal.entries oal)
  in
  let survivor_ack e = not (Proc_set.is_empty (Proc_set.diff e.Oal.acks departed)) in
  (* fixed point: orphan categories cascade *)
  let rec close marked =
    let undeliv_ordinal o =
      Id_map.exists (fun _ (ordinal, _) -> ordinal = o) marked
    in
    let undeliv_same_origin_below origin ordinal =
      Id_map.exists
        (fun id (o, _) ->
          Proc_id.equal id.Proposal.origin origin && o < ordinal)
        marked
    in
    let undeliv_at_or_below hdo =
      Id_map.exists (fun _ (o, _) -> o <= hdo) marked
    in
    ignore undeliv_ordinal;
    let step marked (e, (info : Oal.update_info)) =
      if Id_map.mem info.Oal.proposal_id marked then marked
      else begin
        let origin = info.Oal.proposal_id.Proposal.origin in
        let ordering = info.Oal.semantics.Semantics.ordering in
        let atomicity = info.Oal.semantics.Semantics.atomicity in
        let category =
          if not (survivor_ack e) then Some Lost
          else if
            (ordering = Semantics.Total || ordering = Semantics.Timed)
            && undeliv_same_origin_below origin e.Oal.ordinal
          then Some Orphan_order
          else if
            (atomicity = Semantics.Strong || atomicity = Semantics.Strict)
            && undeliv_at_or_below info.Oal.hdo
          then Some Orphan_atomicity
          else if
            (atomicity = Semantics.Strong || atomicity = Semantics.Strict)
            && info.Oal.hdo > highest_known_ordinal
          then Some Unknown_dependency
          else None
        in
        match category with
        | Some c ->
          Id_map.add info.Oal.proposal_id (e.Oal.ordinal, c) marked
        | None -> marked
      end
    in
    let marked' = List.fold_left step marked candidates in
    if Id_map.cardinal marked' = Id_map.cardinal marked then marked
    else close marked'
  in
  let marked = close Id_map.empty in
  Id_map.bindings marked
  |> List.sort (fun (_, (o1, _)) (_, (o2, _)) -> Int.compare o1 o2)
  |> List.map (fun (id, (_, c)) -> (id, c))

let apply ~oal classified =
  List.fold_left (fun oal (id, _) -> Oal.mark_undeliverable oal id) oal
    classified

let pending_category ~undeliverable_ordinals ~highest_known_ordinal
    ~(semantics : Semantics.t) ~hdo =
  match semantics.Semantics.atomicity with
  | Semantics.Weak -> None
  | Semantics.Strong | Semantics.Strict ->
    if hdo > highest_known_ordinal then Some Unknown_dependency
    else if List.exists (fun o -> o <= hdo) undeliverable_ordinals then
      Some Orphan_atomicity
    else None
