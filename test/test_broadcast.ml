(* Tests for the timewheel atomic broadcast substrate: the ordering and
   acknowledgement list, proposal buffers, the delivery conditions for
   all nine semantics, decider rotation, the broadcast core and the
   standalone protocol. *)

open Tasim
open Broadcast

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let pid = Proc_id.of_int
let set_of ids = Proc_set.of_list (List.map pid ids)

let info ?(sem = Semantics.unordered_weak) ?(ts = Time.of_ms 1) ?(hdo = -1)
    ~origin ~seq () =
  {
    Oal.proposal_id = { Proposal.origin = pid origin; seq };
    semantics = sem;
    send_ts = ts;
    hdo;
  }

let proposal ?(sem = Semantics.unordered_weak) ?(ts = Time.of_ms 1) ?(hdo = -1)
    ~origin ~seq payload =
  Proposal.make ~origin:(pid origin) ~seq ~semantics:sem ~send_ts:ts ~hdo
    payload

(* The paper's member acknowledges and marks stability by rewriting
   its whole list; Core does the same through its own-ack overlay and
   [Oal.add_acks]/[Oal.mark_stable]. These references rewrite every
   entry, in ascending ordinal order, asking [received] once per update
   entry. *)
module Ref_oal = struct
  let rewrite oal f =
    let w = Oal.to_wire oal in
    match Oal.of_wire { w with Oal.w_entries = List.map f w.Oal.w_entries } with
    | Ok oal -> oal
    | Error e -> failwith e

  let ack_all_received oal ~received ~by =
    rewrite oal (fun e ->
        let has =
          match e.Oal.body with
          | Oal.Update info -> received info.Oal.proposal_id
          | Oal.Membership _ -> true
        in
        if has then { e with Oal.acks = Proc_set.add by e.Oal.acks } else e)

  let refresh_stability oal ~group =
    rewrite oal (fun e ->
        if Proc_set.subset group e.Oal.acks then
          { e with Oal.known_stable = true }
        else e)
end

(* ------------------------------------------------------------------ *)
(* Semantics *)

let test_semantics_all () =
  check Alcotest.int "nine combinations" 9 (List.length Semantics.all);
  check Alcotest.bool "distinct" true
    (List.length (List.sort_uniq compare Semantics.all) = 9)

(* ------------------------------------------------------------------ *)
(* Proposal ids *)

let test_proposal_id_order () =
  let a = { Proposal.origin = pid 1; seq = 5 } in
  let b = { Proposal.origin = pid 1; seq = 6 } in
  let c = { Proposal.origin = pid 2; seq = 0 } in
  check Alcotest.bool "same origin by seq" true (Proposal.id_compare a b < 0);
  check Alcotest.bool "by origin first" true (Proposal.id_compare b c < 0);
  check Alcotest.bool "equal" true (Proposal.id_equal a a)

(* ------------------------------------------------------------------ *)
(* Oal *)

let test_oal_append_assigns_ordinals () =
  let oal = Oal.empty in
  let oal, o1 = Oal.append_update oal (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty in
  let oal, o2 = Oal.append_update oal (info ~origin:2 ~seq:0 ()) ~acks:Proc_set.empty in
  let oal, o3 =
    Oal.append_membership oal ~group:(set_of [ 0; 1 ])
      ~group_id:(Group_id.v ~epoch:0 ~seq:1)
  in
  check Alcotest.int "first" 0 o1;
  check Alcotest.int "second" 1 o2;
  check Alcotest.int "membership too" 2 o3;
  check Alcotest.int "cardinal" 3 (Oal.cardinal oal);
  check Alcotest.int "highest" 2 (Oal.highest_ordinal oal)

let test_oal_find_and_ack () =
  let id = { Proposal.origin = pid 1; seq = 0 } in
  let oal, _ =
    Oal.append_update Oal.empty (info ~origin:1 ~seq:0 ()) ~acks:(set_of [ 1 ])
  in
  let oal = Oal.ack_update oal id (pid 3) in
  (match Oal.find_update oal id with
  | Some e -> check Alcotest.bool "acked" true (Proc_set.mem (pid 3) e.Oal.acks)
  | None -> Alcotest.fail "missing");
  (* acking an absent descriptor is a no-op *)
  let oal' = Oal.ack_update oal { Proposal.origin = pid 9; seq = 9 } (pid 0) in
  check Alcotest.int "no-op" (Oal.cardinal oal) (Oal.cardinal oal')

let test_oal_ack_all_received () =
  let oal, _ =
    Oal.append_update Oal.empty (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let oal, _ =
    Oal.append_update oal (info ~origin:2 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let received id = id.Proposal.origin = pid 1 in
  let oal = Ref_oal.ack_all_received oal ~received ~by:(pid 4) in
  let acked origin =
    match Oal.find_update oal { Proposal.origin = pid origin; seq = 0 } with
    | Some e -> Proc_set.mem (pid 4) e.Oal.acks
    | None -> false
  in
  check Alcotest.bool "received one acked" true (acked 1);
  check Alcotest.bool "other not" false (acked 2)

let test_oal_stability_and_purge () =
  let group = set_of [ 0; 1; 2 ] in
  let oal, o0 =
    Oal.append_update Oal.empty (info ~origin:0 ~seq:0 ()) ~acks:group
  in
  let oal, o1 =
    Oal.append_update oal (info ~origin:1 ~seq:0 ()) ~acks:(set_of [ 0 ])
  in
  let oal = Ref_oal.refresh_stability oal ~group in
  let stable o =
    match Oal.entry_at oal o with
    | Some e -> e.Oal.known_stable
    | None -> false
  in
  check Alcotest.bool "full acks stable" true (stable o0);
  check Alcotest.bool "partial acks not" false (stable o1);
  (* purge advances over stable AND delivered entries only *)
  let purged = Oal.purge_stable oal ~delivered:(fun o -> o = o0) in
  check Alcotest.int "low advanced" (o0 + 1) (Oal.low purged);
  check Alcotest.bool "purged entry gone" true (Oal.entry_at purged o0 = None);
  (* not delivered: purge stops *)
  let kept = Oal.purge_stable oal ~delivered:(fun _ -> false) in
  check Alcotest.int "nothing purged" 0 (Oal.low kept)

let test_oal_merge_authoritative () =
  (* receiver has a shorter list; incoming extends it and unions acks *)
  let local, _ =
    Oal.append_update Oal.empty (info ~origin:0 ~seq:0 ()) ~acks:(set_of [ 0 ])
  in
  let incoming, _ =
    Oal.append_update Oal.empty (info ~origin:0 ~seq:0 ()) ~acks:(set_of [ 1 ])
  in
  let incoming, _ =
    Oal.append_update incoming (info ~origin:1 ~seq:0 ()) ~acks:(set_of [ 1 ])
  in
  let merged = Oal.merge ~local ~incoming in
  check Alcotest.int "extended" 2 (Oal.cardinal merged);
  (match Oal.entry_at merged 0 with
  | Some e ->
    check Alcotest.bool "acks unioned" true
      (Proc_set.equal e.Oal.acks (set_of [ 0; 1 ]))
  | None -> Alcotest.fail "entry lost");
  check Alcotest.int "next ordinal" 2 (Oal.next_ordinal merged)

let test_oal_merge_purged_incoming_marks_stable () =
  (* incoming low=2 tells the receiver ordinals 0,1 are stable *)
  let local, _ =
    Oal.append_update Oal.empty (info ~origin:0 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let local, _ =
    Oal.append_update local (info ~origin:0 ~seq:1 ()) ~acks:Proc_set.empty
  in
  let incoming, _ =
    Oal.append_update Oal.empty (info ~origin:0 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let incoming, _ =
    Oal.append_update incoming (info ~origin:0 ~seq:1 ()) ~acks:Proc_set.empty
  in
  let incoming =
    Ref_oal.refresh_stability
      (Ref_oal.ack_all_received incoming ~received:(fun _ -> true) ~by:(pid 0))
      ~group:(set_of [ 0 ])
  in
  let incoming = Oal.purge_stable incoming ~delivered:(fun _ -> true) in
  check Alcotest.int "incoming purged" 2 (Oal.low incoming);
  let merged = Oal.merge ~local ~incoming in
  match Oal.entry_at merged 0 with
  | Some e -> check Alcotest.bool "learned stability" true e.Oal.known_stable
  | None -> Alcotest.fail "local entry should remain until delivered"

let test_oal_undeliverable_marks () =
  let id = { Proposal.origin = pid 1; seq = 0 } in
  let oal, _ =
    Oal.append_update Oal.empty (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let oal = Oal.mark_undeliverable oal id in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "listed"
    [ (1, 0) ]
    (List.map
       (fun (i : Proposal.id) -> (Proc_id.to_int i.Proposal.origin, i.Proposal.seq))
       (Oal.undeliverable_ids oal));
  (* undeliverable or-ed through merge *)
  let plain, _ =
    Oal.append_update Oal.empty (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let merged = Oal.merge ~local:plain ~incoming:oal in
  match Oal.find_update merged id with
  | Some e -> check Alcotest.bool "mark survives merge" true e.Oal.undeliverable
  | None -> Alcotest.fail "entry lost"

let test_oal_latest_membership () =
  let oal, _ =
    Oal.append_membership Oal.empty ~group:(set_of [ 0; 1; 2 ])
      ~group_id:(Group_id.v ~epoch:0 ~seq:0)
  in
  let oal, _ = Oal.append_update oal (info ~origin:0 ~seq:0 ()) ~acks:Proc_set.empty in
  let oal, o =
    Oal.append_membership oal ~group:(set_of [ 0; 1 ])
      ~group_id:(Group_id.v ~epoch:0 ~seq:1)
  in
  match Oal.latest_membership oal with
  | Some (ordinal, group, gid) ->
    check Alcotest.int "ordinal" o ordinal;
    check Alcotest.int "gid" 1 (Group_id.seq gid);
    check Alcotest.bool "group" true (Proc_set.equal group (set_of [ 0; 1 ]))
  | None -> Alcotest.fail "no membership found"

let test_oal_is_prefix () =
  let a, _ = Oal.append_update Oal.empty (info ~origin:0 ~seq:0 ()) ~acks:Proc_set.empty in
  let b, _ = Oal.append_update a (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty in
  check Alcotest.bool "a prefix of b" true (Oal.is_prefix a ~of_:b);
  check Alcotest.bool "b not prefix of a" false (Oal.is_prefix b ~of_:a);
  (* divergent body at same ordinal is not a prefix *)
  let c, _ = Oal.append_update Oal.empty (info ~origin:9 ~seq:9 ()) ~acks:Proc_set.empty in
  check Alcotest.bool "divergent" false (Oal.is_prefix c ~of_:b)

let prop_oal_merge_preserves_prefix =
  (* merging a view that extends mine yields something my old list is a
     prefix of *)
  QCheck.Test.make ~name:"merge(local, extension) keeps local as prefix"
    QCheck.(pair (int_range 0 6) (int_range 0 6))
    (fun (base, extra) ->
      let build from count start =
        List.fold_left
          (fun oal i ->
            fst
              (Oal.append_update oal
                 (info ~origin:(i mod 3) ~seq:i ())
                 ~acks:Proc_set.empty))
          from
          (List.init count (fun i -> start + i))
      in
      let local = build Oal.empty base 0 in
      let incoming = build local extra base in
      let merged = Oal.merge ~local ~incoming in
      Oal.is_prefix local ~of_:merged && Oal.is_prefix incoming ~of_:merged)

let gen_small_oal =
  QCheck.Gen.(
    map
      (fun specs ->
        List.fold_left
          (fun oal (origin, seq, acks) ->
            fst
              (Oal.append_update oal
                 (info ~origin ~seq ())
                 ~acks:(set_of acks)))
          Oal.empty specs)
      (list_size (int_bound 8)
         (triple (int_bound 4) (int_bound 20) (list_size (int_bound 4) (int_bound 4)))))

let arb_oal = QCheck.make ~print:(fun o -> Fmt.str "%a" Oal.pp o) gen_small_oal

(* wire view: the serialization image used by the live runtime's codec
   must reconstruct the oal exactly, and reject inconsistent images *)

let prop_oal_wire_round_trip =
  QCheck.Test.make ~name:"of_wire (to_wire o) reconstructs o exactly" arb_oal
    (fun oal ->
      (* exercise the purge path too, so w_low > 0 and the
         latest-membership memo cross the wire *)
      let oal, _ =
        Oal.append_membership oal ~group:(set_of [ 0; 1 ])
          ~group_id:{ Group_id.epoch = 1; seq = 2 }
      in
      match Oal.of_wire (Oal.to_wire oal) with
      | Error e -> QCheck.Test.fail_reportf "of_wire rejected to_wire: %s" e
      | Ok back ->
        Oal.low back = Oal.low oal
        && Oal.next_ordinal back = Oal.next_ordinal oal
        && Oal.entries back = Oal.entries oal
        && Oal.latest_membership back = Oal.latest_membership oal)

let test_oal_of_wire_rejects () =
  let entry ordinal =
    {
      Oal.ordinal;
      body = Oal.Update (info ~origin:0 ~seq:ordinal ());
      acks = set_of [ 0 ];
      undeliverable = false;
      known_stable = false;
    }
  in
  let reject name wire =
    match Oal.of_wire wire with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  reject "unordered ordinals"
    { Oal.w_low = 0; w_next_ordinal = 2; w_entries = [ entry 1; entry 0 ];
      w_latest = None };
  reject "duplicate ordinals"
    { Oal.w_low = 0; w_next_ordinal = 2; w_entries = [ entry 0; entry 0 ];
      w_latest = None };
  reject "entry below the frontier"
    { Oal.w_low = 3; w_next_ordinal = 5; w_entries = [ entry 2 ];
      w_latest = None };
  reject "entry beyond the counter"
    { Oal.w_low = 0; w_next_ordinal = 1; w_entries = [ entry 1 ];
      w_latest = None };
  match
    Oal.of_wire
      { Oal.w_low = 1; w_next_ordinal = 3; w_entries = [ entry 1; entry 2 ];
        w_latest = None }
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid purged image rejected: %s" e

let test_buffers_wire_round_trip () =
  let p origin seq =
    Proposal.make ~origin:(pid origin) ~seq ~semantics:Semantics.total_strong
      ~send_ts:(Time.of_ms 3) ~hdo:1 ("u" ^ string_of_int seq)
  in
  let b = Buffers.empty in
  let b = fst (Buffers.store b (p 0 1)) in
  let b = fst (Buffers.store b (p 1 2)) in
  let b = Buffers.note_delivered b (p 0 1).Proposal.id ~ordinal:(Some 4) in
  let back = Buffers.of_wire (Buffers.to_wire b) in
  let wire = Buffers.to_wire b and wire' = Buffers.to_wire back in
  Alcotest.(check int) "proposals survive" 2
    (List.length wire'.Buffers.w_proposals);
  Alcotest.(check bool) "wire image is a fixed point" true (wire = wire');
  Alcotest.(check bool) "delivered ordinal survives" true
    (Buffers.delivered back (p 0 1).Proposal.id);
  Alcotest.(check bool) "undelivered stays undelivered" false
    (Buffers.delivered back (p 1 2).Proposal.id)

let prop_oal_merge_idempotent =
  QCheck.Test.make ~name:"merge(o, o) preserves bodies and ordinals" arb_oal
    (fun oal ->
      let merged = Oal.merge ~local:oal ~incoming:oal in
      Oal.is_prefix oal ~of_:merged
      && Oal.cardinal merged = Oal.cardinal oal
      && Oal.next_ordinal merged = Oal.next_ordinal oal)

(* merge against the entry-by-entry reference it must equal: mark
   local entries below the incoming frontier stable, then let every
   incoming entry at or above the local frontier replace or join the
   local one. Both sides are purged at random first, so either frontier
   may lead. *)
let prop_oal_merge_matches_reference =
  let purged oal =
    Oal.purge_stable
      (Ref_oal.refresh_stability oal ~group:(set_of [ 0; 1 ]))
      ~delivered:(fun o -> o mod 3 <> 2)
  in
  QCheck.Test.make ~name:"merge equals the entry-by-entry reference"
    QCheck.(pair arb_oal arb_oal)
    (fun (a, b) ->
      let local = purged a and incoming = purged b in
      let module M = Map.Make (Int) in
      let of_list es =
        List.fold_left (fun m e -> M.add e.Oal.ordinal e m) M.empty es
      in
      let reference =
        List.fold_left
          (fun m (inc : Oal.entry) ->
            if inc.Oal.ordinal < Oal.low local then m
            else
              match M.find_opt inc.Oal.ordinal m with
              | None -> M.add inc.Oal.ordinal inc m
              | Some mine ->
                M.add inc.Oal.ordinal
                  {
                    inc with
                    Oal.acks = Proc_set.union mine.Oal.acks inc.Oal.acks;
                    undeliverable =
                      mine.Oal.undeliverable || inc.Oal.undeliverable;
                    known_stable =
                      mine.Oal.known_stable || inc.Oal.known_stable;
                  }
                  m)
          (of_list
             (List.map
                (fun e ->
                  if e.Oal.ordinal < Oal.low incoming then
                    { e with Oal.known_stable = true }
                  else e)
                (Oal.entries local)))
          (Oal.entries incoming)
      in
      let merged = Oal.merge ~local ~incoming in
      let ids =
        List.filter_map
          (fun e ->
            match e.Oal.body with
            | Oal.Update info -> Some info.Oal.proposal_id
            | Oal.Membership _ -> None)
          (Oal.entries merged)
      in
      Oal.entries merged = List.map snd (M.bindings reference)
      && List.for_all
           (fun id ->
             match Oal.find_update merged id with
             | Some e -> M.find_opt e.Oal.ordinal reference = Some e
             | None -> false)
           ids)

let prop_oal_merge_next_ordinal_monotone =
  QCheck.Test.make ~name:"merge never loses ordinal ground"
    QCheck.(pair arb_oal arb_oal)
    (fun (a, b) ->
      let m = Oal.merge ~local:a ~incoming:b in
      Oal.next_ordinal m >= Oal.next_ordinal a
      && Oal.next_ordinal m >= Oal.next_ordinal b
      && Oal.low m = Oal.low a)

(* add_acks and mark_stable rebuild only the entries they change; the
   result must equal rewriting every entry *)
let prop_oal_partial_rewrite =
  QCheck.Test.make ~name:"ack/refresh equal the whole-list rewrite"
    QCheck.(pair arb_oal (int_bound 4))
    (fun (oal, by) ->
      let by = pid by and group = set_of [ 0; 1; 2 ] in
      let acked o = o mod 2 = 0 in
      let all_of group e = Proc_set.subset group e.Oal.acks in
      let rewrite f = List.map f (Oal.entries oal) in
      let with_acks =
        rewrite (fun e ->
            if acked e.Oal.ordinal then
              { e with Oal.acks = Proc_set.add by e.Oal.acks }
            else e)
      in
      let stable =
        rewrite (fun e ->
            if e.Oal.known_stable then e
            else { e with Oal.known_stable = all_of group e })
      in
      let once = Oal.add_acks oal ~by acked in
      Oal.entries once = with_acks
      && Oal.entries (Oal.mark_stable oal (all_of group)) = stable
      (* nothing left to change: the argument comes back itself *)
      && Oal.add_acks once ~by acked == once
      && Oal.mark_stable oal (all_of (Proc_set.full ~n:8)) == oal)

let prop_oal_purge_only_advances =
  QCheck.Test.make ~name:"purge_stable only advances the frontier" arb_oal
    (fun oal ->
      let oal = Ref_oal.refresh_stability oal ~group:(set_of [ 0; 1 ]) in
      let purged = Oal.purge_stable oal ~delivered:(fun o -> o mod 2 = 0) in
      Oal.low purged >= Oal.low oal
      && Oal.cardinal purged <= Oal.cardinal oal)

(* ------------------------------------------------------------------ *)
(* Buffers *)

let test_buffers_store_dedup () =
  let b = Buffers.empty in
  let p = proposal ~origin:1 ~seq:0 "x" in
  let b, fresh1 = Buffers.store b p in
  let _, fresh2 = Buffers.store b p in
  check Alcotest.bool "first" true fresh1;
  check Alcotest.bool "dup" false fresh2;
  check Alcotest.bool "received" true (Buffers.received b p.Proposal.id)

let test_buffers_delivery_bookkeeping () =
  let p = proposal ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  let b = Buffers.note_delivered b p.Proposal.id ~ordinal:(Some 3) in
  check Alcotest.bool "delivered" true (Buffers.delivered b p.Proposal.id);
  check Alcotest.bool "ordinal" true (Buffers.delivered_ordinal b 3);
  check Alcotest.int "highest" 3 (Buffers.highest_delivered_ordinal b);
  (* payload retained for retransmission until compacted *)
  check Alcotest.bool "payload kept" true (Buffers.get b p.Proposal.id <> None);
  let b = Buffers.compact b ~below:4 in
  check Alcotest.bool "payload dropped" true (Buffers.get b p.Proposal.id = None)

(* [delivered] answers from the window first; once [compact] drops
   the payload, the history still answers for the id and its ordinal *)
let test_buffers_compacted_stays_delivered () =
  let p = proposal ~origin:1 ~seq:0 "x" and q = proposal ~origin:2 ~seq:0 "y" in
  let b = fst (Buffers.store (fst (Buffers.store Buffers.empty p)) q) in
  let b = Buffers.note_delivered b p.Proposal.id ~ordinal:(Some 3) in
  let b = Buffers.compact b ~below:4 in
  check Alcotest.bool "payload dropped" true (Buffers.get b p.Proposal.id = None);
  check Alcotest.bool "still delivered" true (Buffers.delivered b p.Proposal.id);
  check Alcotest.bool "ordinal still delivered" true (Buffers.delivered_ordinal b 3);
  check Alcotest.bool "pending not delivered" false (Buffers.delivered b q.Proposal.id);
  check Alcotest.bool "other ordinal" false (Buffers.delivered_ordinal b 4)

let test_buffers_dpd () =
  let p = proposal ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  let b = Buffers.note_delivered b p.Proposal.id ~ordinal:None in
  check Alcotest.int "in dpd" 1 (List.length (Buffers.dpd b));
  let b = Buffers.note_ordinal b p.Proposal.id 7 in
  check Alcotest.int "ordinal learned" 0 (List.length (Buffers.dpd b));
  check Alcotest.bool "now counted" true (Buffers.delivered_ordinal b 7)

let test_buffers_marks_and_expiry () =
  let p = proposal ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  let b = Buffers.mark_undeliverable b p.Proposal.id ~expires:(Time.of_ms 100) in
  check Alcotest.bool "marked" true
    (Buffers.is_marked b p.Proposal.id ~now:(Time.of_ms 50));
  check Alcotest.bool "expired" false
    (Buffers.is_marked b p.Proposal.id ~now:(Time.of_ms 150));
  let b = Buffers.expire_marks b ~now:(Time.of_ms 150) in
  check Alcotest.bool "cleared" false
    (Buffers.is_marked b p.Proposal.id ~now:(Time.of_ms 50))

let test_buffers_block_origin () =
  let b =
    Buffers.block_origin Buffers.empty (pid 2) ~expires:(Time.of_ms 100)
  in
  let from2 = { Proposal.origin = pid 2; seq = 9 } in
  let from3 = { Proposal.origin = pid 3; seq = 9 } in
  check Alcotest.bool "origin blocked" true
    (Buffers.is_marked b from2 ~now:(Time.of_ms 10));
  check Alcotest.bool "other origin fine" false
    (Buffers.is_marked b from3 ~now:(Time.of_ms 10))

let test_buffers_purge_marked () =
  let p = proposal ~origin:2 ~seq:0 "x" in
  let q = proposal ~origin:3 ~seq:0 "y" in
  let b, _ = Buffers.store Buffers.empty p in
  let b, _ = Buffers.store b q in
  let b = Buffers.block_origin b (pid 2) ~expires:(Time.of_ms 100) in
  let b = Buffers.purge_marked b ~now:(Time.of_ms 10) in
  check Alcotest.bool "marked purged" true (Buffers.get b p.Proposal.id = None);
  check Alcotest.bool "other kept" true (Buffers.get b q.Proposal.id <> None)

let test_buffers_learn_ordinals_duplicate () =
  (* an oal holding one id twice: the lower ordinal is learned, as the
     ascending walk over every entry learned it *)
  let p = proposal ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  let b = Buffers.note_delivered b p.Proposal.id ~ordinal:None in
  let oal, _ =
    Oal.append_update Oal.empty (info ~origin:2 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let oal, _ =
    Oal.append_update oal (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let oal, _ =
    Oal.append_update oal (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let b = Buffers.learn_ordinals b ~find:(Oal.first_update_ordinal oal) in
  check Alcotest.bool "first entry wins" true (Buffers.delivered_ordinal b 1);
  check Alcotest.int "no longer undated" 0 (List.length (Buffers.dpd b));
  check Alcotest.bool "later entry not counted" false
    (Buffers.delivered_ordinal b 2)

(* Model check of the Buffers indexes. The reference keeps the plain
   maps and recomputes every derived value by walking them, the way the
   module did before it kept indexes; after each step of a random
   operation sequence the indexed answers must equal the recomputed
   ones. *)

module Ref_buffers = struct
  module Id_map = Proposal.Id_map
  module Int_set = Set.Make (Int)

  type t = {
    proposals : string Proposal.t Id_map.t;
    delivered : int option Id_map.t;
    ordinals : Int_set.t;
  }

  let empty =
    {
      proposals = Id_map.empty;
      delivered = Id_map.empty;
      ordinals = Int_set.empty;
    }

  let received t id = Id_map.mem id t.proposals || Id_map.mem id t.delivered

  let store t (p : string Proposal.t) =
    if received t p.Proposal.id then t
    else { t with proposals = Id_map.add p.Proposal.id p t.proposals }

  let remove t id = { t with proposals = Id_map.remove id t.proposals }

  let note_delivered t id ~ordinal =
    let t = { t with delivered = Id_map.add id ordinal t.delivered } in
    match ordinal with
    | Some o -> { t with ordinals = Int_set.add o t.ordinals }
    | None -> t

  let note_ordinal t id ordinal =
    match Id_map.find_opt id t.delivered with
    | Some None ->
      {
        t with
        delivered = Id_map.add id (Some ordinal) t.delivered;
        ordinals = Int_set.add ordinal t.ordinals;
      }
    | Some (Some _) | None -> t

  (* the per-decision fold over every oal entry *)
  let learn_ordinals t oal =
    List.fold_left
      (fun t e ->
        match e.Oal.body with
        | Oal.Update info -> note_ordinal t info.Oal.proposal_id e.Oal.ordinal
        | Oal.Membership _ -> t)
      t (Oal.entries oal)

  let compact t ~purged =
    let keep id _ =
      match Id_map.find_opt id t.delivered with
      | Some (Some ordinal) -> not (purged ordinal)
      | Some None | None -> true
    in
    { t with proposals = Id_map.filter keep t.proposals }

  let purge_marked t ~is_marked =
    {
      t with
      proposals =
        Id_map.filter
          (fun id _ -> (not (is_marked id)) || Id_map.mem id t.delivered)
          t.proposals;
    }

  (* the wire image carries the delivered ordinal set itself, so the
     trip loses nothing, not even an ordinal a second note_delivered of
     the same id overwrote *)
  let round_trip t = t

  let pending t =
    Id_map.fold
      (fun id _ acc -> if Id_map.mem id t.delivered then acc else id :: acc)
      t.proposals []
    |> List.rev

  let dpd t =
    Id_map.fold
      (fun id ordinal acc ->
        match ordinal with None -> id :: acc | Some _ -> acc)
      t.delivered []
    |> List.rev
end

type buffers_op =
  | B_store of int * int
  | B_deliver of int * int * int option
  | B_ordinal of int * int * int
  | B_remove of int * int
  | B_mark of int * int * int
  | B_purge_marked of int
  | B_compact of int
  | B_round_trip
  | B_learn of (int * int) option list

let pp_buffers_op ppf = function
  | B_store (o, s) -> Fmt.pf ppf "store p%d#%d" o s
  | B_deliver (o, s, ord) ->
    Fmt.pf ppf "deliver p%d#%d %a" o s Fmt.(option ~none:(any "-") int) ord
  | B_ordinal (o, s, ord) -> Fmt.pf ppf "ordinal p%d#%d %d" o s ord
  | B_remove (o, s) -> Fmt.pf ppf "remove p%d#%d" o s
  | B_mark (o, s, e) -> Fmt.pf ppf "mark p%d#%d until %d" o s e
  | B_purge_marked now -> Fmt.pf ppf "purge_marked at %d" now
  | B_compact below -> Fmt.pf ppf "compact below %d" below
  | B_round_trip -> Fmt.string ppf "of_wire (to_wire _)"
  | B_learn es ->
    Fmt.pf ppf "learn [%a]"
      Fmt.(
        list ~sep:semi
          (option ~none:(any "membership") (pair ~sep:(any "#") int int)))
      es

(* a small id space (3 origins x 8 seqs), so ops keep hitting the same
   ids and learn oals often hold one id twice; seqs are delivered in any
   order, so the per-origin ranges get holes, grow, merge and have holes
   filled *)
let gen_buffers_op =
  QCheck.Gen.(
    let o = int_bound 2 and s = int_bound 7 and ord = int_bound 11 in
    frequency
      [
        (4, map2 (fun o s -> B_store (o, s)) o s);
        (3, map3 (fun o s ord -> B_deliver (o, s, Some ord)) o s ord);
        (2, map2 (fun o s -> B_deliver (o, s, None)) o s);
        (2, map3 (fun o s ord -> B_ordinal (o, s, ord)) o s ord);
        (1, map2 (fun o s -> B_remove (o, s)) o s);
        (1, map3 (fun o s e -> B_mark (o, s, e)) o s (int_bound 3));
        (1, map (fun now -> B_purge_marked now) (int_bound 3));
        (1, map (fun b -> B_compact b) (int_bound 12));
        (1, return B_round_trip);
        ( 2,
          map
            (fun es -> B_learn es)
            (list_size (int_bound 8)
               (opt ~ratio:0.85 (pair (int_bound 2) (int_bound 7)))) );
      ])

let arb_buffers_ops =
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_buffers_op))
    QCheck.Gen.(list_size (int_bound 60) gen_buffers_op)

let prop_buffers_indexes_match_model =
  QCheck.Test.make ~count:500
    ~name:"Buffers indexes equal the recomputed reference" arb_buffers_ops
    (fun ops ->
      let id o s = { Proposal.origin = pid o; seq = s } in
      let agree step b r =
        let same what ref_value value =
          if ref_value <> value then
            QCheck.Test.fail_reportf "after step %d: %s differs" step what
        in
        let ids = List.map (fun (p : string Proposal.t) -> p.Proposal.id) in
        same "stored"
          (List.map fst (Ref_buffers.Id_map.bindings r.Ref_buffers.proposals))
          (ids (Buffers.stored b));
        same "pending" (Ref_buffers.pending r) (ids (Buffers.pending b));
        same "dpd" (Ref_buffers.dpd r) (Buffers.dpd b);
        same "highest ordinal"
          (match Ref_buffers.Int_set.max_elt_opt r.Ref_buffers.ordinals with
           | Some o -> o
           | None -> -1)
          (Buffers.highest_delivered_ordinal b);
        same "delivered ordinals"
          (List.init 13 (fun o ->
               Ref_buffers.Int_set.mem o r.Ref_buffers.ordinals))
          (List.init 13 (Buffers.delivered_ordinal b));
        (* every id of the 3 x 8 space, stored, compacted or never seen *)
        let every_id = List.init 24 (fun i -> id (i / 8) (i mod 8)) in
        same "delivered ids"
          (List.map (fun i -> Ref_buffers.Id_map.mem i r.Ref_buffers.delivered)
             every_id)
          (List.map (Buffers.delivered b) every_id);
        same "received ids"
          (List.map (Ref_buffers.received r) every_id)
          (List.map (Buffers.received b) every_id)
      in
      let step (b, r) op =
        match op with
        | B_store (o, s) ->
          let p =
            Proposal.make ~origin:(pid o) ~seq:s
              ~semantics:Semantics.unordered_weak ~send_ts:(Time.of_ms 1)
              ~hdo:(-1) (Fmt.str "u%d.%d" o s)
          in
          (fst (Buffers.store b p), Ref_buffers.store r p)
        | B_deliver (o, s, ordinal) ->
          ( Buffers.note_delivered b (id o s) ~ordinal,
            Ref_buffers.note_delivered r (id o s) ~ordinal )
        | B_ordinal (o, s, ord) ->
          ( Buffers.note_ordinal b (id o s) ord,
            Ref_buffers.note_ordinal r (id o s) ord )
        | B_remove (o, s) ->
          (Buffers.remove b (id o s), Ref_buffers.remove r (id o s))
        | B_mark (o, s, e) ->
          (Buffers.mark_undeliverable b (id o s) ~expires:(Time.of_ms e), r)
        | B_purge_marked now ->
          let now = Time.of_ms now in
          ( Buffers.purge_marked b ~now,
            Ref_buffers.purge_marked r ~is_marked:(fun id ->
                Buffers.is_marked b id ~now) )
        | B_compact below ->
          ( Buffers.compact b ~below,
            Ref_buffers.compact r ~purged:(fun o -> o < below) )
        | B_round_trip ->
          (Buffers.of_wire (Buffers.to_wire b), Ref_buffers.round_trip r)
        | B_learn specs ->
          let oal =
            List.fold_left
              (fun oal spec ->
                match spec with
                | Some (o, s) ->
                  fst
                    (Oal.append_update oal (info ~origin:o ~seq:s ())
                       ~acks:Proc_set.empty)
                | None ->
                  fst
                    (Oal.append_membership oal ~group:(set_of [ 0 ])
                       ~group_id:(Group_id.v ~epoch:0 ~seq:1)))
              Oal.empty specs
          in
          ( Buffers.learn_ordinals b ~find:(Oal.first_update_ordinal oal),
            Ref_buffers.learn_ordinals r oal )
      in
      let _ =
        List.fold_left
          (fun (i, state) op ->
            let b, r = step state op in
            agree i b r;
            (i + 1, (b, r)))
          (0, (Buffers.empty, Ref_buffers.empty))
          ops
      in
      true)

(* The range set against [Set.Make (Int)]. Besides single random adds,
   the generator adds x+2 then x, then x+1, which joins two runs. *)
let prop_range_set_matches_set =
  let module S = Set.Make (Int) in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 30)
        (frequency
           [
             (3, map (fun x -> [ x ]) (int_bound 40));
             (1, map (fun x -> [ x + 2; x; x + 1 ]) (int_bound 38));
           ]))
  in
  QCheck.Test.make ~count:500 ~name:"range set equals Set.Make (Int)"
    (QCheck.make ~print:QCheck.Print.(list (list int)) gen)
    (fun groups ->
      let elements r =
        Range_set.fold
          (fun lo hi acc -> List.init (hi - lo + 1) (fun i -> lo + i) @ acc)
          r []
      in
      let agree r s =
        elements r = S.elements s
        && Range_set.max_elt_opt r = S.max_elt_opt s
        && List.for_all
             (fun x -> Range_set.mem x r = S.mem x s)
             (List.init 44 (fun x -> x - 1))
        (* canonical: no two runs touch *)
        && fst
             (Range_set.fold
                (fun lo hi (ok, above) -> (ok && hi + 1 < above, lo))
                r (true, max_int))
      in
      let r, s =
        List.fold_left
          (fun (r, s) x ->
            let r' = Range_set.add x r and s' = S.add x s in
            if not (agree r' s') then
              QCheck.Test.fail_reportf "after adding %d: %s" x
                (String.concat " "
                   (Range_set.fold
                      (fun lo hi acc -> Fmt.str "[%d,%d]" lo hi :: acc)
                      r' []));
            if S.mem x s && r' != r then
              QCheck.Test.fail_reportf "adding member %d rebuilt the set" x;
            (r', s'))
          (Range_set.empty, S.empty) (List.concat groups)
      in
      let ranges = Range_set.fold (fun lo hi acc -> (lo, hi) :: acc) r [] in
      agree (Range_set.of_ranges ranges) s
      && agree (Range_set.of_ranges (List.rev ranges)) s)

let test_range_set_join () =
  let r = Range_set.(add 2 (add 0 (add 4 empty))) in
  check Alcotest.int "three runs" 3 (Range_set.cardinal r);
  let r = Range_set.(add 1 (add 3 r)) in
  check Alcotest.int "filled holes join into one run" 1 (Range_set.cardinal r);
  check Alcotest.(option int) "max" (Some 4) (Range_set.max_elt_opt r);
  check Alcotest.int "overlapping ranges, any order" 2
    (Range_set.cardinal
       (Range_set.of_ranges
          [ (5, 9); (0, 3); (2, 4); (11, 11); (8, 9); (7, 6) ]))

(* Delivering [count] updates in order at n = 5, each compacted once it
   is [window] ordinals old, leaves buffers whose size does not depend
   on [count]: the history is one run per origin and one of ordinals. *)
let buffers_after ~count ~window =
  let payload = "u" in
  let rec go b i =
    if i = count then b
    else
      let p = proposal ~origin:(i mod 5) ~seq:(i / 5) payload in
      let b, _ = Buffers.store b p in
      let b = Buffers.note_delivered b p.Proposal.id ~ordinal:(Some i) in
      go (Buffers.compact b ~below:(i - window)) (i + 1)
  in
  go Buffers.empty 0

let test_buffers_bounded_state () =
  let window = 16 in
  let words count =
    Obj.reachable_words (Obj.repr (buffers_after ~count ~window))
  in
  let small = words 1_000 and large = words 10_000 in
  if abs (large - small) > window then
    Alcotest.failf "Buffers grew with the run: %d words after 1k, %d after 10k"
      small large;
  let b = buffers_after ~count:10_000 ~window in
  check Alcotest.int "one run per origin" 5
    (Buffers.fold_delivered (fun _ seqs n -> n + Range_set.cardinal seqs) b 0);
  check Alcotest.int "one run of ordinals" 1
    (Range_set.cardinal (Buffers.delivered_ordinals b));
  check Alcotest.int "the window is stored" (window + 1)
    (List.length (Buffers.stored b));
  check Alcotest.bool "an early id stays a duplicate" true
    (Buffers.received b { Proposal.origin = pid 3; seq = 0 });
  check Alcotest.int "highest ordinal" 9_999
    (Buffers.highest_delivered_ordinal b)

(* ------------------------------------------------------------------ *)
(* Delivery conditions *)

let deliver_ids ~oal ~buffers ~now =
  let ds, buffers' =
    Delivery.step ~oal ~buffers ~now_sync:now ~timed_delay:(Time.of_ms 100)
  in
  ( List.map (fun d -> (d.Delivery.proposal.Proposal.id, d.Delivery.ordinal)) ds,
    buffers' )

let test_delivery_unordered_weak_immediate () =
  let p = proposal ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  let ids, _ = deliver_ids ~oal:Oal.empty ~buffers:b ~now:Time.zero in
  check Alcotest.int "delivered without ordinal" 1 (List.length ids);
  match ids with
  | [ (_, ordinal) ] -> check (Alcotest.option Alcotest.int) "no ordinal" None ordinal
  | _ -> Alcotest.fail "unexpected"

let test_delivery_total_needs_ordinal () =
  let sem = Semantics.{ ordering = Total; atomicity = Weak } in
  let p = proposal ~sem ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  let ids, _ = deliver_ids ~oal:Oal.empty ~buffers:b ~now:Time.zero in
  check Alcotest.int "blocked without ordinal" 0 (List.length ids);
  let oal, _ =
    Oal.append_update Oal.empty
      (info ~sem ~origin:1 ~seq:0 ())
      ~acks:Proc_set.empty
  in
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:Time.zero in
  check Alcotest.int "delivered once ordered" 1 (List.length ids)

let test_delivery_total_gap_blocks () =
  let sem = Semantics.{ ordering = Total; atomicity = Weak } in
  (* two ordered proposals; the payload of ordinal 0 is missing *)
  let oal, _ =
    Oal.append_update Oal.empty (info ~sem ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let oal, _ =
    Oal.append_update oal (info ~sem ~origin:2 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let later = proposal ~sem ~origin:2 ~seq:0 "later" in
  let b, _ = Buffers.store Buffers.empty later in
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:Time.zero in
  check Alcotest.int "gap blocks" 0 (List.length ids);
  (* once the gap entry is marked undeliverable, delivery resumes *)
  let oal = Oal.mark_undeliverable oal { Proposal.origin = pid 1; seq = 0 } in
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:Time.zero in
  check Alcotest.int "skip undeliverable" 1 (List.length ids)

let test_delivery_total_in_ordinal_order () =
  let sem = Semantics.{ ordering = Total; atomicity = Weak } in
  let p0 = proposal ~sem ~origin:1 ~seq:0 "a" in
  let p1 = proposal ~sem ~origin:2 ~seq:0 "b" in
  let oal, _ =
    Oal.append_update Oal.empty (info ~sem ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let oal, _ =
    Oal.append_update oal (info ~sem ~origin:2 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let b, _ = Buffers.store Buffers.empty p1 in
  let b, _ = Buffers.store b p0 in
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:Time.zero in
  check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "ascending ordinals" [ Some 0; Some 1 ] (List.map snd ids)

let test_delivery_strong_needs_deps_received () =
  let strong = Semantics.{ ordering = Total; atomicity = Strong } in
  (* dependency at ordinal 0 not received; pr has hdo = 0 *)
  let oal, _ =
    Oal.append_update Oal.empty (info ~origin:1 ~seq:0 ()) ~acks:Proc_set.empty
  in
  let oal, _ =
    Oal.append_update oal
      (info ~sem:strong ~hdo:0 ~origin:2 ~seq:0 ())
      ~acks:Proc_set.empty
  in
  let pr = proposal ~sem:strong ~hdo:0 ~origin:2 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty pr in
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:Time.zero in
  check Alcotest.int "blocked: dep not received" 0 (List.length ids);
  (* receiving the dependency unblocks (and the dep delivers first) *)
  let dep = proposal ~origin:1 ~seq:0 "dep" in
  let b, _ = Buffers.store b dep in
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:Time.zero in
  check Alcotest.int "both deliver" 2 (List.length ids)

let test_delivery_strict_needs_stability () =
  let strict = Semantics.{ ordering = Total; atomicity = Strict } in
  let group = set_of [ 0; 1; 2 ] in
  let dep = proposal ~origin:1 ~seq:0 "dep" in
  let pr = proposal ~sem:strict ~hdo:0 ~origin:2 ~seq:0 "x" in
  let oal, _ =
    Oal.append_update Oal.empty (info ~origin:1 ~seq:0 ()) ~acks:(set_of [ 0 ])
  in
  let oal, _ =
    Oal.append_update oal
      (info ~sem:strict ~hdo:0 ~origin:2 ~seq:0 ())
      ~acks:Proc_set.empty
  in
  let b, _ = Buffers.store Buffers.empty dep in
  let b, _ = Buffers.store b pr in
  (* dep received but not stable: dep (weak) delivers, pr must wait *)
  let ids, b' = deliver_ids ~oal ~buffers:b ~now:Time.zero in
  check Alcotest.int "only the weak dep" 1 (List.length ids);
  (* stability of the dependency unblocks strict delivery *)
  let oal = Oal.ack_update oal dep.Proposal.id (pid 1) in
  let oal = Oal.ack_update oal dep.Proposal.id (pid 2) in
  let oal = Ref_oal.refresh_stability oal ~group in
  let ids, _ = deliver_ids ~oal ~buffers:b' ~now:Time.zero in
  check Alcotest.int "strict delivers after stability" 1 (List.length ids)

let test_delivery_timed_waits () =
  let timed = Semantics.{ ordering = Timed; atomicity = Weak } in
  let pr = proposal ~sem:timed ~ts:(Time.of_ms 50) ~origin:1 ~seq:0 "x" in
  let oal, _ =
    Oal.append_update Oal.empty
      (info ~sem:timed ~ts:(Time.of_ms 50) ~origin:1 ~seq:0 ())
      ~acks:Proc_set.empty
  in
  let b, _ = Buffers.store Buffers.empty pr in
  (* timed_delay is 100ms: not deliverable before 150ms *)
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:(Time.of_ms 100) in
  check Alcotest.int "too early" 0 (List.length ids);
  let ids, _ = deliver_ids ~oal ~buffers:b ~now:(Time.of_ms 150) in
  check Alcotest.int "at the instant" 1 (List.length ids)

let test_delivery_no_redelivery () =
  let p = proposal ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  let ids, b = deliver_ids ~oal:Oal.empty ~buffers:b ~now:Time.zero in
  check Alcotest.int "first" 1 (List.length ids);
  let ids, _ = deliver_ids ~oal:Oal.empty ~buffers:b ~now:Time.zero in
  check Alcotest.int "never twice" 0 (List.length ids)

let test_delivery_blocked_reason () =
  let sem = Semantics.{ ordering = Total; atomicity = Weak } in
  let p = proposal ~sem ~origin:1 ~seq:0 "x" in
  let b, _ = Buffers.store Buffers.empty p in
  match
    Delivery.blocked_reason ~oal:Oal.empty ~buffers:b ~now_sync:Time.zero
      ~timed_delay:(Time.of_ms 100) p
  with
  | Some reason -> check Alcotest.string "reason" "no ordinal yet" reason
  | None -> Alcotest.fail "expected a blocked reason"

(* ------------------------------------------------------------------ *)
(* Rotation *)

let test_rotation () =
  let group = set_of [ 0; 2; 4 ] in
  check Alcotest.int "next after 0" 2
    (Proc_id.to_int (Rotation.next_decider ~group ~after:(pid 0) ~n:5));
  check Alcotest.int "wraps" 0
    (Proc_id.to_int (Rotation.next_decider ~group ~after:(pid 4) ~n:5));
  check Alcotest.int "after non-member" 4
    (Proc_id.to_int (Rotation.next_decider ~group ~after:(pid 3) ~n:5));
  check Alcotest.int "cycle length" (Time.of_ms 90)
    (Rotation.cycle_length ~group ~d:(Time.of_ms 30));
  check Alcotest.bool "is_next" true
    (Rotation.is_next_decider ~group ~after:(pid 0) ~n:5 (pid 2))

(* ------------------------------------------------------------------ *)
(* Standalone protocol integration *)

let run_protocol ~n ~seed ~submissions ~until =
  let cfg = Protocol.default_config in
  let engine = Engine.create { Engine.default_config with Engine.seed } ~n in
  Engine.classify engine Protocol.kind_of_msg;
  let delivered : (Proc_id.t * int, int) Hashtbl.t = Hashtbl.create 64 in
  let order : (Proc_id.t, int list) Hashtbl.t = Hashtbl.create 8 in
  Engine.on_observe engine (fun _at proc obs ->
      match obs with
      | Protocol.Delivered { proposal; _ } ->
        Hashtbl.replace delivered (proc, proposal.Proposal.payload) 1;
        let prev = try Hashtbl.find order proc with Not_found -> [] in
        Hashtbl.replace order proc (proposal.Proposal.payload :: prev)
      | Protocol.Became_decider | Protocol.Stable _ -> ());
  let automaton = Protocol.automaton cfg in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  List.iter
    (fun (at, origin, sem, payload) ->
      Engine.inject_at engine at (pid origin)
        (Protocol.Submit { semantics = sem; payload }))
    submissions;
  Engine.run engine ~until;
  (engine, delivered, order)

let test_protocol_total_order_agreement () =
  let n = 5 in
  let sem = Semantics.total_strong in
  let submissions =
    List.init 20 (fun i ->
        (Time.of_ms (100 + (15 * i)), i mod n, sem, i))
  in
  let _, delivered, order =
    run_protocol ~n ~seed:77 ~submissions ~until:(Time.of_sec 3)
  in
  (* everyone delivered everything *)
  List.iter
    (fun id ->
      List.iter
        (fun i ->
          if not (Hashtbl.mem delivered (id, i)) then
            Alcotest.failf "p%d missed %d" (Proc_id.to_int id) i)
        (List.init 20 Fun.id))
    (Proc_id.all ~n);
  (* identical delivery order at all members *)
  let orders =
    List.map
      (fun id -> List.rev (try Hashtbl.find order id with Not_found -> []))
      (Proc_id.all ~n)
  in
  match orders with
  | first :: rest ->
    List.iter
      (fun o -> check (Alcotest.list Alcotest.int) "same order" first o)
      rest
  | [] -> Alcotest.fail "no orders"

let test_protocol_loss_recovery_via_nack () =
  (* drop many proposal datagrams (decisions stay intact: the standalone
     substrate assumes a live decider chain); the oal-driven negative
     acknowledgements must recover the payloads *)
  let n = 5 in
  let cfg = Protocol.default_config in
  let engine =
    Engine.create { Engine.default_config with Engine.seed = 78 } ~n
  in
  let drop_rng = Rng.create 4242 in
  Net.add_filter (Engine.net engine) ~name:"lossy-proposals"
    (fun ~src:_ ~dst:_ msg ->
      match msg with
      | Protocol.Proposal_msg _ -> Rng.bool drop_rng 0.4
      | _ -> false);
  Engine.classify engine Protocol.kind_of_msg;
  let delivered : (Proc_id.t * int, int) Hashtbl.t = Hashtbl.create 64 in
  Engine.on_observe engine (fun _at proc obs ->
      match obs with
      | Protocol.Delivered { proposal; _ } ->
        Hashtbl.replace delivered (proc, proposal.Proposal.payload) 1
      | _ -> ());
  let automaton = Protocol.automaton cfg in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  (* totals only: unordered could deliver without every member having it *)
  let sem = Semantics.{ ordering = Total; atomicity = Weak } in
  for i = 0 to 9 do
    Engine.inject_at engine (Time.of_ms (100 + (50 * i))) (pid (i mod n))
      (Protocol.Submit { semantics = sem; payload = i })
  done;
  Engine.run engine ~until:(Time.of_sec 8);
  let missing = ref 0 in
  List.iter
    (fun id ->
      for i = 0 to 9 do
        if not (Hashtbl.mem delivered (id, i)) then incr missing
      done)
    (Proc_id.all ~n);
  check Alcotest.int "all recovered" 0 !missing;
  check Alcotest.bool "nacks were used" true
    (Stats.count (Engine.stats engine) "sent:nack" > 0)

let test_protocol_fifo_per_sender () =
  let n = 3 in
  let sem = Semantics.{ ordering = Total; atomicity = Weak } in
  (* p0 proposes 0,1,2,3 rapidly *)
  let submissions =
    List.init 4 (fun i -> (Time.of_ms (100 + i), 0, sem, i))
  in
  let _, _, order =
    run_protocol ~n ~seed:79 ~submissions ~until:(Time.of_sec 2)
  in
  List.iter
    (fun id ->
      let o = List.rev (try Hashtbl.find order id with Not_found -> []) in
      check (Alcotest.list Alcotest.int) "FIFO" [ 0; 1; 2; 3 ] o)
    (Proc_id.all ~n)

let test_protocol_stability_reported () =
  let n = 3 in
  let cfg = Protocol.default_config in
  let engine = Engine.create { Engine.default_config with Engine.seed = 80 } ~n in
  let stable = ref 0 in
  Engine.on_observe engine (fun _at _proc obs ->
      match obs with Protocol.Stable _ -> incr stable | _ -> ());
  let automaton = Protocol.automaton cfg in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  Engine.inject_at engine (Time.of_ms 100) (pid 0)
    (Protocol.Submit { semantics = Semantics.unordered_weak; payload = 1 });
  Engine.run engine ~until:(Time.of_sec 2);
  check Alcotest.bool "stability observed at every member" true (!stable >= n)

(* The decision message is the one path by which the oal and the
   decider role travel: each decision is addressed to every other
   member, never point-to-point, so the successor that takes the role
   next hears it, and the role walks the whole ring. *)
let test_decision_reaches_every_member () =
  let n = 4 in
  let engine =
    Engine.create { Engine.default_config with Engine.seed = 81 } ~n
  in
  let addressed = Array.make_matrix n n 0 in
  Net.add_filter (Engine.net engine) ~name:"count decisions"
    (fun ~src ~dst msg ->
      (match msg with
      | Protocol.Decision _ ->
        let s = Proc_id.to_int src and d = Proc_id.to_int dst in
        addressed.(s).(d) <- addressed.(s).(d) + 1
      | _ -> ());
      false);
  let became = Array.make n 0 in
  Engine.on_observe engine (fun _at proc obs ->
      match obs with
      | Protocol.Became_decider ->
        let i = Proc_id.to_int proc in
        became.(i) <- became.(i) + 1
      | _ -> ());
  let automaton = Protocol.automaton Protocol.default_config in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
    (Proc_id.all ~n);
  Engine.inject_at engine (Time.of_ms 100) (pid 1)
    (Protocol.Submit { semantics = Semantics.total_strong; payload = 0 });
  Engine.run engine ~until:(Time.of_sec 1);
  for s = 0 to n - 1 do
    let sent = addressed.(s).((s + 1) mod n) in
    check Alcotest.bool (Fmt.str "p%d decided" s) true (sent > 0);
    for d = 0 to n - 1 do
      if d <> s then
        check Alcotest.int (Fmt.str "p%d's decisions reach p%d" s d) sent
          addressed.(s).(d)
    done;
    check Alcotest.bool (Fmt.str "p%d took the role" s) true (became.(s) > 0)
  done

(* property: under random proposal loss, every seed still reaches
   total-order agreement at all members (the nack machinery always
   recovers), and FIFO per sender holds *)
let prop_agreement_under_loss =
  QCheck.Test.make ~count:15 ~name:"total order agreement under proposal loss"
    QCheck.(pair (int_range 1 10_000) (int_range 0 40))
    (fun (seed, loss_pct) ->
      let n = 5 in
      let cfg = Protocol.default_config in
      let engine =
        Engine.create { Engine.default_config with Engine.seed } ~n
      in
      let drop_rng = Rng.create (seed + 1) in
      Net.add_filter (Engine.net engine) ~name:"loss"
        (fun ~src:_ ~dst:_ msg ->
          match msg with
          | Protocol.Proposal_msg _ ->
            Rng.bool drop_rng (float_of_int loss_pct /. 100.0)
          | _ -> false);
      let order : (Proc_id.t, int list) Hashtbl.t = Hashtbl.create 8 in
      Engine.on_observe engine (fun _at proc obs ->
          match obs with
          | Protocol.Delivered { proposal; _ } ->
            let prev = try Hashtbl.find order proc with Not_found -> [] in
            Hashtbl.replace order proc (proposal.Proposal.payload :: prev)
          | _ -> ());
      let automaton = Protocol.automaton cfg in
      List.iter
        (fun id ->
          Engine.add_process engine id automaton ~clock:Engine.ideal_clock ())
        (Proc_id.all ~n);
      let sem = Semantics.{ ordering = Total; atomicity = Weak } in
      for i = 0 to 11 do
        Engine.inject_at engine
          (Time.of_ms (100 + (40 * i)))
          (pid (i mod n))
          (Protocol.Submit { semantics = sem; payload = i })
      done;
      Engine.run engine ~until:(Time.of_sec 8);
      let orders =
        List.map
          (fun id -> List.rev (try Hashtbl.find order id with Not_found -> []))
          (Proc_id.all ~n)
      in
      match orders with
      | first :: rest ->
        List.length first = 12 && List.for_all (( = ) first) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* Core: the transitions Protocol and Member share *)

let test_core_appender_ordinal () =
  (* the appender dates an update it delivered unordered only from the
     next oal it adopts, like every other member *)
  let t = Core.create ~self:(pid 0) ~n:3 in
  let oal, _ =
    Oal.append_membership Oal.empty ~group:(set_of [ 0; 1; 2 ])
      ~group_id:(Group_id.form ~epoch:0)
  in
  let t = Core.set_oal t oal in
  let p = proposal ~origin:1 ~seq:0 "x" in
  let t = Option.get (Core.receive t ~now:(Time.of_ms 1) p) in
  let t, deliveries =
    Core.deliver t ~now:(Time.of_ms 1) ~timed_delay:(Time.of_ms 200)
  in
  check Alcotest.int "delivered unordered" 1 (List.length deliveries);
  let t = Core.order_pending t ~now:(Time.of_ms 2) in
  let appended =
    match Oal.find_update (Core.oal t) p.Proposal.id with
    | Some e -> e.Oal.ordinal
    | None -> Alcotest.fail "not appended"
  in
  check Alcotest.int "after the membership entry" 1 appended;
  check Alcotest.bool "still undated after append" true
    (List.mem p.Proposal.id (Buffers.dpd (Core.buffers t)));
  check Alcotest.bool "ordinal not yet delivered" false
    (Buffers.delivered_ordinal (Core.buffers t) appended);
  let t = Core.adopt t (Core.oal t) in
  check Alcotest.bool "dated by adopt" true
    (Buffers.delivered_ordinal (Core.buffers t) appended);
  check Alcotest.int "dpd empty" 0 (List.length (Buffers.dpd (Core.buffers t)))

let test_core_recover_holder () =
  (* p0 misses four updates, the last marked undeliverable; p1 acked
     them all but has left the group *)
  let t = Core.create ~self:(pid 0) ~n:5 in
  let group = set_of [ 0; 2; 3; 4 ] in
  let append oal ~seq acks =
    fst (Oal.append_update oal (info ~origin:3 ~seq ()) ~acks:(set_of acks))
  in
  let oal = append Oal.empty ~seq:0 [ 1; 3 ] in
  let oal = append oal ~seq:1 [ 1 ] in
  let oal = append oal ~seq:2 [ 1; 4 ] in
  let oal = append oal ~seq:3 [ 1; 4 ] in
  let oal = Oal.mark_undeliverable oal { Proposal.origin = pid 3; seq = 3 } in
  let nacks =
    List.map
      (fun (holder, ids) ->
        (Proc_id.to_int holder, List.map (fun id -> id.Proposal.seq) ids))
      (Core.recover (Core.set_oal t oal) ~group)
  in
  check
    Alcotest.(list (pair int (list int)))
    "member holder first, departed holder as fallback, one list each"
    [ (3, [ 0 ]); (1, [ 1 ]); (4, [ 2 ]) ]
    nacks;
  (* the scratch is left empty: a second call answers the same *)
  check Alcotest.int "repeatable" 3
    (List.length (Core.recover (Core.set_oal t oal) ~group))

let test_core_receive_refusals () =
  let now = Time.of_ms 10 and expires = Time.of_ms 100 in
  let t = Core.create ~self:(pid 0) ~n:4 in
  let p = proposal ~origin:1 ~seq:0 "x" in
  let oal, _ =
    Oal.append_update Oal.empty (info ~origin:1 ~seq:0 ()) ~acks:(set_of [ 1 ])
  in
  let fresh = Core.set_oal t oal in
  let refused t p = Option.is_none (Core.receive t ~now p) in
  let marked =
    Buffers.mark_undeliverable (Core.buffers t) p.Proposal.id ~expires
  in
  check Alcotest.bool "marked id" true
    (refused (Core.set_buffers fresh marked) p);
  let blocked = Buffers.block_origin (Core.buffers t) (pid 1) ~expires in
  check Alcotest.bool "blocked origin" true
    (refused (Core.set_buffers fresh blocked) p);
  match Core.receive fresh ~now p with
  | None -> Alcotest.fail "fresh proposal refused"
  | Some t ->
    check Alcotest.bool "stored" true (Buffers.received (Core.buffers t) p.Proposal.id);
    check Alcotest.bool "acked" true
      (match Oal.find_update (Core.oal t) p.Proposal.id with
       | Some e -> Proc_set.mem (pid 0) e.Oal.acks
       | None -> false);
    check Alcotest.bool "duplicate" true (refused t p)

(* ------------------------------------------------------------------ *)
(* Delivery frontiers against the round-based reference *)

(* The delivery conditions as they were written before the frontiers:
   every round re-checks every pending proposal, walking the whole oal
   for order and atomicity. [Delivery.step] must deliver exactly what
   this delivers, in the same order. *)
module Ref_delivery = struct
  let entry_resolved ~buffers entry =
    match entry.Oal.body with
    | Oal.Membership _ -> true
    | Oal.Update info ->
      entry.Oal.undeliverable || Buffers.delivered buffers info.Oal.proposal_id

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

  let atomicity_ok ~oal ~buffers ~(proposal : 'u Proposal.t) =
    let hdo = proposal.Proposal.hdo in
    let dep_ok strictness e =
      e.Oal.ordinal > hdo
      ||
      match e.Oal.body with
      | Oal.Membership _ -> true
      | Oal.Update info -> (
        e.Oal.undeliverable
        ||
        match strictness with
        | `Received ->
          Buffers.received buffers info.Oal.proposal_id
          || Buffers.delivered buffers info.Oal.proposal_id
        | `Stable -> e.Oal.known_stable)
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
        | Semantics.Unordered -> None
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

  let step ~oal ~buffers ~now_sync ~timed_delay =
    let rec round buffers acc =
      let ready =
        List.filter
          (fun p ->
            blocked_reason ~oal ~buffers ~now_sync ~timed_delay p = None)
          (Buffers.pending buffers)
      in
      let ready =
        List.map
          (fun p ->
            match Oal.find_update oal p.Proposal.id with
            | Some e -> (p, Some e.Oal.ordinal)
            | None -> (p, None))
          ready
      in
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
                { Delivery.proposal; ordinal } :: acc ))
            (buffers, acc) ready
        in
        round buffers acc
    in
    round buffers []
end

(* A random delivery scenario: a pool of proposals over the nine
   semantics, an oal ordering some of them (never-received ones too)
   with membership entries, undeliverable marks, stability and ordinal
   gaps in between, and buffers holding some of the pool, some already
   delivered, under local marks and blocked origins. *)
let delivery_scenario seed =
  let rng = Rng.create seed in
  let semantics = Array.of_list Semantics.all in
  let count = 1 + Rng.int rng 10 in
  let pool =
    List.init count (fun seq ->
        Proposal.make ~origin:(pid (Rng.int rng 4)) ~seq
          ~semantics:(Rng.pick rng semantics)
          ~send_ts:(Time.of_ms (Rng.int rng 300))
          ~hdo:(Rng.int rng (count + 3) - 1)
          (Fmt.str "u%d" seq))
  in
  let low = Rng.int rng 3 in
  let ordered = Array.of_list pool in
  Rng.shuffle rng ordered;
  let next = ref low and entries = ref [] in
  let push body =
    if Rng.bool rng 0.1 then incr next;
    entries :=
      {
        Oal.ordinal = !next;
        body;
        acks = set_of (List.filter (fun _ -> Rng.bool rng 0.5) [ 0; 1; 2; 3 ]);
        undeliverable = Rng.bool rng 0.1;
        known_stable = Rng.bool rng 0.4;
      }
      :: !entries;
    incr next
  in
  Array.iter
    (fun (p : string Proposal.t) ->
      if Rng.bool rng 0.15 then
        push
          (Oal.Membership
             { group = set_of [ 0; 1; 2 ]; group_id = Group_id.form ~epoch:0 });
      if Rng.bool rng 0.75 then
        push
          (Oal.Update
             {
               Oal.proposal_id = p.Proposal.id;
               semantics = p.Proposal.semantics;
               send_ts = p.Proposal.send_ts;
               hdo = p.Proposal.hdo;
             }))
    ordered;
  let oal =
    match
      Oal.of_wire
        {
          Oal.w_low = low;
          w_next_ordinal = !next;
          w_entries = List.rev !entries;
          w_latest = None;
        }
    with
    | Ok oal -> oal
    | Error e -> failwith e
  in
  let buffers =
    List.fold_left
      (fun b (p : string Proposal.t) ->
        if Rng.bool rng 0.25 then b (* never received *)
        else
          let b = fst (Buffers.store b p) in
          let b =
            if Rng.bool rng 0.25 then
              Buffers.note_delivered b p.Proposal.id
                ~ordinal:
                  (match Oal.find_update oal p.Proposal.id with
                   | Some e when Rng.bool rng 0.8 -> Some e.Oal.ordinal
                   | Some _ | None -> None)
            else b
          in
          if Rng.bool rng 0.08 then
            Buffers.mark_undeliverable b p.Proposal.id
              ~expires:(Time.of_ms (Rng.int rng 500))
          else b)
      Buffers.empty pool
  in
  let buffers =
    if Rng.bool rng 0.15 then
      Buffers.block_origin buffers (pid (Rng.int rng 4))
        ~expires:(Time.of_ms (Rng.int rng 500))
    else buffers
  in
  (pool, oal, buffers, Time.of_ms (Rng.int rng 500))

let timed_delay = Time.of_ms 200

let delivered_ids ds =
  List.map
    (fun { Delivery.proposal; ordinal } -> (proposal.Proposal.id, ordinal))
    ds

(* [Some reason] when the frontier step and the reference disagree on
   the scenario *)
let delivery_mismatch seed =
  let pool, oal, buffers, now_sync = delivery_scenario seed in
  let ds, b = Delivery.step ~oal ~buffers ~now_sync ~timed_delay in
  let rds, rb = Ref_delivery.step ~oal ~buffers ~now_sync ~timed_delay in
  if delivered_ids ds <> delivered_ids rds then Some "deliveries"
  else if Buffers.to_wire b <> Buffers.to_wire rb then Some "buffers"
  else
    List.find_map
      (fun p ->
        let r = Delivery.blocked_reason ~oal ~buffers ~now_sync ~timed_delay p in
        if r = Ref_delivery.blocked_reason ~oal ~buffers ~now_sync ~timed_delay p
        then None
        else Some (Fmt.str "blocked_reason of %a" Proposal.pp_id p.Proposal.id))
      pool

let prop_delivery_matches_rounds =
  QCheck.Test.make ~count:2000
    ~name:"frontier step equals the round-based reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match delivery_mismatch seed with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "seed %d: %s differ" seed what)

(* the scenarios reach every semantics, every verdict and chains of
   rounds, so the equality above is not vacuous *)
let test_delivery_scenarios_cover () =
  let delivered = Hashtbl.create 9 and reasons = Hashtbl.create 8 in
  let longest = ref 0 in
  for seed = 0 to 1999 do
    (match delivery_mismatch seed with
    | None -> ()
    | Some what -> Alcotest.failf "seed %d: %s differ" seed what);
    let pool, oal, buffers, now_sync = delivery_scenario seed in
    let ds, _ = Delivery.step ~oal ~buffers ~now_sync ~timed_delay in
    let ordered =
      List.length (List.filter (fun d -> d.Delivery.ordinal <> None) ds)
    in
    longest := max !longest ordered;
    List.iter
      (fun { Delivery.proposal; _ } ->
        Hashtbl.replace delivered proposal.Proposal.semantics ())
      ds;
    List.iter
      (fun p ->
        match Delivery.blocked_reason ~oal ~buffers ~now_sync ~timed_delay p with
        | Some r -> Hashtbl.replace reasons r ()
        | None -> ())
      pool
  done;
  check Alcotest.int "every semantics delivered" 9 (Hashtbl.length delivered);
  check Alcotest.int "every blocked reason seen" 7 (Hashtbl.length reasons);
  check Alcotest.bool "chains of ordered deliveries" true (!longest >= 4)

(* ------------------------------------------------------------------ *)
(* Merge: the covered case against the general merge *)

(* [seq] counts the ids handed out, so a member's list holds an id
   once *)
let random_update rng seq =
  incr seq;
  info ~origin:(Rng.int rng 4) ~seq:!seq
    ~sem:(Rng.pick rng (Array.of_list Semantics.all))
    ()

let random_acks rng =
  set_of (List.filter (fun _ -> Rng.bool rng 0.4) [ 0; 1; 2; 3 ])

(* a random list built the way members build theirs: appends,
   membership descriptors, acks, stability, undeliverable marks and
   purges *)
let random_oal rng seq =
  let oal = ref Oal.empty in
  for _ = 1 to Rng.int rng 9 do
    if Rng.bool rng 0.1 then
      oal :=
        fst
          (Oal.append_membership !oal ~group:(set_of [ 0; 1; 2 ])
             ~group_id:(Group_id.v ~epoch:0 ~seq:(Rng.int rng 3)))
    else
      oal :=
        fst (Oal.append_update !oal (random_update rng seq) ~acks:(random_acks rng))
  done;
  !oal

(* what a later decider may have made of [oal]: more acks, more
   entries, stability, marks and a purge *)
let evolve rng seq oal =
  let oal =
    if Rng.bool rng 0.6 then
      Ref_oal.ack_all_received oal
        ~received:(fun _ -> Rng.bool rng 0.7)
        ~by:(pid (Rng.int rng 4))
    else oal
  in
  let oal =
    List.fold_left
      (fun oal _ ->
        fst (Oal.append_update oal (random_update rng seq) ~acks:(random_acks rng)))
      oal
      (List.init (Rng.int rng 3) Fun.id)
  in
  let oal =
    if Rng.bool rng 0.5 then
      Ref_oal.refresh_stability oal ~group:(set_of [ 0; 1 ])
    else oal
  in
  let oal =
    match Oal.entries oal with
    | { Oal.body = Oal.Update i; _ } :: _ when Rng.bool rng 0.2 ->
      Oal.mark_undeliverable oal i.Oal.proposal_id
    | _ -> oal
  in
  if Rng.bool rng 0.4 then
    Oal.purge_stable oal ~delivered:(fun _ -> Rng.bool rng 0.8)
  else oal

let update_ids oals =
  List.concat_map
    (fun oal ->
      List.filter_map
        (fun e ->
          match e.Oal.body with
          | Oal.Update i -> Some i.Oal.proposal_id
          | Oal.Membership _ -> None)
        (Oal.entries oal))
    oals

let same_oal a b ~ids =
  Oal.to_wire a = Oal.to_wire b
  && List.for_all (fun id -> Oal.find_update a id = Oal.find_update b id) ids

let merge_pair seed =
  let rng = Rng.create seed and seq = ref 0 in
  let base = random_oal rng seq in
  let incoming =
    if Rng.bool rng 0.15 then begin
      (* another member's history: the same ids at other ordinals *)
      let issued = !seq in
      seq := 0;
      let other = random_oal rng seq in
      seq := max issued !seq;
      other
    end
    else evolve rng seq base
  in
  let local = if Rng.bool rng 0.3 then evolve rng seq base else base in
  (local, incoming)

let prop_merge_matches_general =
  QCheck.Test.make ~count:2000 ~name:"merge equals the general merge"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let local, incoming = merge_pair seed in
      same_oal
        (Oal.merge ~local ~incoming)
        (Oal.merge_general ~local ~incoming)
        ~ids:(update_ids [ local; incoming ]))

(* the pairs above are covered often enough for the equality to test
   the covered case, in both of its shapes *)
let test_merge_pairs_cover () =
  let shared = ref 0 and below = ref 0 in
  for seed = 0 to 1999 do
    let local, incoming = merge_pair seed in
    let merged = Oal.merge ~local ~incoming in
    if merged == incoming then incr shared
    else if
      Oal.low incoming > Oal.low local
      && Oal.entries merged
         = Oal.entries (Oal.merge_general ~local ~incoming)
      && List.exists (fun e -> e.Oal.ordinal < Oal.low incoming) (Oal.entries merged)
    then incr below
  done;
  check Alcotest.bool "incoming returned itself" true (!shared > 200);
  check Alcotest.bool "local entries below the frontier" true (!below > 20)

let test_merge_covered_shares () =
  let oal =
    List.fold_left
      (fun oal seq ->
        fst (Oal.append_update oal (info ~origin:1 ~seq ()) ~acks:(set_of [ 1 ])))
      Oal.empty [ 0; 1; 2 ]
  in
  let incoming =
    fst
      (Oal.append_update
         (Ref_oal.ack_all_received oal ~received:(fun _ -> true) ~by:(pid 2))
         (info ~origin:2 ~seq:0 ()) ~acks:(set_of [ 2 ]))
  in
  check Alcotest.bool "covered, equal frontiers: the incoming value" true
    (Oal.merge ~local:oal ~incoming == incoming);
  (* a local ack the incoming list lacks is not covered *)
  let local = Oal.ack_update oal { Proposal.origin = pid 1; seq = 1 } (pid 3) in
  let merged = Oal.merge ~local ~incoming in
  check Alcotest.bool "uncovered: a new list" false (merged == incoming);
  check Alcotest.bool "uncovered: the general merge" true
    (same_oal merged
       (Oal.merge_general ~local ~incoming)
       ~ids:(update_ids [ local; incoming ]));
  (* a local counter ahead of the incoming one is not covered either,
     even when every local entry is *)
  let ahead =
    match Oal.of_wire { (Oal.to_wire oal) with Oal.w_next_ordinal = 9 } with
    | Ok oal -> oal
    | Error e -> Alcotest.fail e
  in
  check Alcotest.int "counter kept" 9
    (Oal.next_ordinal (Oal.merge ~local:ahead ~incoming))

(* ------------------------------------------------------------------ *)
(* Core's own-ack overlay against a core that writes every ack *)

(* The broadcast core as it was before the overlay: every own ack is
   written into the oal as it is given. *)
module Ref_core = struct
  type t = {
    self : Proc_id.t;
    n : int;
    oal : Oal.t;
    buffers : string Buffers.t;
    next_seq : int;
  }

  let create ~self ~n =
    { self; n; oal = Oal.empty; buffers = Buffers.empty; next_seq = 0 }

  let submit t ~clock ~semantics payload =
    let p =
      Proposal.make ~origin:t.self ~seq:t.next_seq ~semantics ~send_ts:clock
        ~hdo:(Buffers.highest_delivered_ordinal t.buffers)
        payload
    in
    let buffers, _ = Buffers.store t.buffers p in
    let oal = Oal.ack_update t.oal p.Proposal.id t.self in
    ({ t with oal; buffers; next_seq = t.next_seq + 1 }, p)

  let receive t ~now (p : string Proposal.t) =
    if Buffers.is_marked t.buffers p.Proposal.id ~now then None
    else
      match Buffers.store t.buffers p with
      | _, false -> None
      | buffers, true ->
        Some { t with buffers; oal = Oal.ack_update t.oal p.Proposal.id t.self }

  let view t =
    let received id = Buffers.received t.buffers id in
    { t with oal = Ref_oal.ack_all_received t.oal ~received ~by:t.self }

  let adopt t oal =
    let t = view { t with oal } in
    let find = Oal.first_update_ordinal t.oal in
    { t with buffers = Buffers.learn_ordinals t.buffers ~find }

  let order_pending t ~now =
    let acks = Proc_set.singleton t.self in
    let append oal (p : string Proposal.t) =
      if
        Oal.mem_update oal p.Proposal.id
        || Buffers.is_marked t.buffers p.Proposal.id ~now
      then oal
      else
        fst
          (Oal.append_update oal
             {
               Oal.proposal_id = p.Proposal.id;
               semantics = p.Proposal.semantics;
               send_ts = p.Proposal.send_ts;
               hdo = p.Proposal.hdo;
             }
             ~acks)
    in
    { t with oal = List.fold_left append t.oal (Buffers.stored t.buffers) }

  let refresh t ~group = { t with oal = Ref_oal.refresh_stability t.oal ~group }

  let purge t =
    let delivered o = Buffers.delivered_ordinal t.buffers o in
    let oal = Oal.purge_stable t.oal ~delivered in
    { t with oal; buffers = Buffers.compact t.buffers ~below:(Oal.low oal) }

  let deliver t ~now =
    let ds, buffers =
      Ref_delivery.step ~oal:t.oal ~buffers:t.buffers ~now_sync:now
        ~timed_delay
    in
    ({ t with buffers }, ds)

  (* holders in first-asked order, each with its ids in oal order *)
  let recover t ~group =
    let asked = ref [] in
    Oal.iter_entries t.oal (fun e ->
        match e.Oal.body with
        | Oal.Update info
          when (not (Buffers.received t.buffers info.Oal.proposal_id))
               && not e.Oal.undeliverable -> (
          let holders =
            let members = Proc_set.inter e.Oal.acks group in
            if Proc_set.is_empty members then e.Oal.acks else members
          in
          match Proc_set.successor_in holders t.self ~n:t.n with
          | Some h ->
            let ids = try List.assoc h !asked with Not_found -> [] in
            asked :=
              if ids = [] then !asked @ [ (h, [ info.Oal.proposal_id ]) ]
              else
                List.map
                  (fun (h', ids) ->
                    if Proc_id.equal h h' then (h', ids @ [ info.Oal.proposal_id ])
                    else (h', ids))
                  !asked
          | None -> ())
        | Oal.Update _ | Oal.Membership _ -> ());
    !asked
end

type core_op =
  | C_submit of int
  | C_receive of int
  | C_merge of int
  | C_replace of int
  | C_view
  | C_order
  | C_refresh of bool
  | C_purge
  | C_deliver
  | C_drop of int

let pp_core_op ppf = function
  | C_submit s -> Fmt.pf ppf "submit(sem %d)" s
  | C_receive i -> Fmt.pf ppf "receive #%d" i
  | C_merge s -> Fmt.pf ppf "merge(seed %d)" s
  | C_replace s -> Fmt.pf ppf "replace(seed %d)" s
  | C_view -> Fmt.string ppf "view"
  | C_order -> Fmt.string ppf "order_pending"
  | C_refresh all -> Fmt.pf ppf "refresh(%s)" (if all then "all" else "0-2")
  | C_purge -> Fmt.string ppf "purge"
  | C_deliver -> Fmt.string ppf "deliver"
  | C_drop i -> Fmt.pf ppf "mark and drop #%d" i

let gen_core_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun s -> C_submit s) (int_bound 8));
        (5, map (fun i -> C_receive i) (int_bound 11));
        (4, map (fun s -> C_merge s) (int_bound 1_000_000));
        (1, map (fun s -> C_replace s) (int_bound 1_000_000));
        (1, return C_view);
        (2, return C_order);
        (2, map (fun b -> C_refresh b) bool);
        (2, return C_purge);
        (3, return C_deliver);
        (1, map (fun i -> C_drop i) (int_bound 11));
      ])

let arb_core_ops =
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_core_op))
    QCheck.Gen.(list_size (int_bound 40) gen_core_op)

(* proposals p1..p3 send; p0 runs the cores *)
let core_pool =
  let semantics = Array.of_list Semantics.all in
  List.init 12 (fun i ->
      Proposal.make
        ~origin:(pid (1 + (i mod 3)))
        ~seq:(i / 3)
        ~semantics:semantics.(i mod 9)
        ~send_ts:(Time.of_ms (10 * i))
        ~hdo:((i / 2) - 1)
        (Fmt.str "u%d" i))

(* a decider's list grown from the receiver's explicit one: other
   members' acks, descriptors for pool proposals the receiver may never
   have received, stability and marks *)
let decider_oal seed oal =
  let rng = Rng.create seed in
  let oal =
    Ref_oal.ack_all_received oal
      ~received:(fun _ -> Rng.bool rng 0.8)
      ~by:(pid (1 + Rng.int rng 3))
  in
  let oal =
    List.fold_left
      (fun oal (p : string Proposal.t) ->
        if Oal.mem_update oal p.Proposal.id || not (Rng.bool rng 0.3) then oal
        else
          fst
            (Oal.append_update oal
               {
                 Oal.proposal_id = p.Proposal.id;
                 semantics = p.Proposal.semantics;
                 send_ts = p.Proposal.send_ts;
                 hdo = p.Proposal.hdo;
               }
               ~acks:(set_of [ p.Proposal.id.Proposal.origin |> Proc_id.to_int ])))
      oal core_pool
  in
  let oal =
    if Rng.bool rng 0.2 then
      fst
        (Oal.append_membership oal ~group:(set_of [ 0; 1; 2; 3 ])
           ~group_id:(Group_id.v ~epoch:0 ~seq:(Rng.int rng 3)))
    else oal
  in
  let oal =
    if Rng.bool rng 0.3 then
      Ref_oal.refresh_stability oal ~group:(set_of [ 1; 2; 3 ])
    else oal
  in
  if Rng.bool rng 0.1 then
    match Oal.entries oal with
    | { Oal.body = Oal.Update i; _ } :: _ ->
      Oal.mark_undeliverable oal i.Oal.proposal_id
    | _ -> oal
  else oal

let prop_core_overlay_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"overlay core equals the core that writes every ack" arb_core_ops
    (fun ops ->
      let n = 4 and self = pid 0 in
      let ids = List.map (fun (p : string Proposal.t) -> p.Proposal.id) core_pool in
      let group_all = set_of [ 0; 1; 2; 3 ] in
      let agree i (t, r) =
        let fail what =
          QCheck.Test.fail_reportf "after op %d: %s differs" i what
        in
        let oal = Core.oal t in
        if Oal.to_wire oal <> Oal.to_wire r.Ref_core.oal then fail "oal";
        if
          not
            (List.for_all
               (fun id -> Oal.find_update oal id = Oal.find_update r.Ref_core.oal id)
               ids)
        then fail "find_update";
        if Buffers.to_wire (Core.buffers t) <> Buffers.to_wire r.Ref_core.buffers
        then fail "buffers";
        List.iter
          (fun group ->
            if Core.recover t ~group <> Ref_core.recover r ~group then
              fail "recover")
          [ group_all; set_of [ 0; 2; 3 ] ]
      in
      let clock = ref 0 and last_decision = ref Oal.empty in
      let step (t, r) op =
        incr clock;
        let now = Time.of_ms (10 * !clock) in
        match op with
        | C_submit s ->
          let semantics = List.nth Semantics.all s in
          let payload = Fmt.str "own%d" !clock in
          let t, p = Core.submit t ~clock:now ~semantics payload in
          let r, p' = Ref_core.submit r ~clock:now ~semantics payload in
          if p <> p' then QCheck.Test.fail_report "submitted proposals differ";
          (t, r)
        | C_receive i -> (
          let p = List.nth core_pool i in
          match (Core.receive t ~now p, Ref_core.receive r ~now p) with
          | Some t, Some r -> (t, r)
          | None, None -> (t, r)
          | _ -> QCheck.Test.fail_report "receive verdicts differ")
        | C_merge seed ->
          (* each decision builds on the one before, and now and then on
             this member's own list (as if it came back through other
             members), so no two lists order one id at two ordinals *)
          let base =
            if seed mod 4 = 0 then r.Ref_core.oal else !last_decision
          in
          let incoming = decider_oal seed base in
          last_decision := incoming;
          ( Core.merge t ~incoming,
            Ref_core.adopt r (Oal.merge ~local:r.Ref_core.oal ~incoming) )
        | C_replace seed ->
          let incoming = decider_oal seed Oal.empty in
          last_decision := incoming;
          (Core.adopt t incoming, Ref_core.adopt r incoming)
        | C_view -> (Core.view t, Ref_core.view r)
        | C_order ->
          (* this member's turn: its decision is the next base *)
          let r = Ref_core.order_pending r ~now in
          last_decision := r.Ref_core.oal;
          (Core.order_pending t ~now, r)
        | C_refresh all ->
          let group = if all then group_all else set_of [ 0; 1; 2 ] in
          (Core.refresh t ~group, Ref_core.refresh r ~group)
        | C_purge -> (Core.purge t, Ref_core.purge r)
        | C_deliver ->
          let t, ds = Core.deliver t ~now ~timed_delay in
          let r, rds = Ref_core.deliver r ~now in
          if delivered_ids ds <> delivered_ids rds then
            QCheck.Test.fail_report "deliveries differ";
          (t, r)
        | C_drop i ->
          (* a member purges a proposal it marked undeliverable: its ack
             stays in the oal, the payload goes *)
          let drop b =
            Buffers.purge_marked
              (Buffers.mark_undeliverable b (List.nth core_pool i).Proposal.id
                 ~expires:now)
              ~now
          in
          ( Core.set_buffers t (drop (Core.buffers t)),
            { r with Ref_core.buffers = drop r.Ref_core.buffers } )
      in
      let init = (Core.create ~self ~n, Ref_core.create ~self ~n) in
      ignore
        (List.fold_left
           (fun (i, cores) op ->
             let cores = step cores op in
             agree i cores;
             (i + 1, cores))
           (0, init) ops);
      true)

let () =
  Alcotest.run "broadcast"
    [
      ( "semantics",
        [
          Alcotest.test_case "all" `Quick test_semantics_all;
          Alcotest.test_case "proposal ids" `Quick test_proposal_id_order;
        ] );
      ( "oal",
        [
          Alcotest.test_case "append ordinals" `Quick test_oal_append_assigns_ordinals;
          Alcotest.test_case "find/ack" `Quick test_oal_find_and_ack;
          Alcotest.test_case "ack_all_received" `Quick test_oal_ack_all_received;
          Alcotest.test_case "stability/purge" `Quick test_oal_stability_and_purge;
          Alcotest.test_case "merge" `Quick test_oal_merge_authoritative;
          Alcotest.test_case "merge purged" `Quick test_oal_merge_purged_incoming_marks_stable;
          Alcotest.test_case "undeliverable" `Quick test_oal_undeliverable_marks;
          Alcotest.test_case "latest membership" `Quick test_oal_latest_membership;
          Alcotest.test_case "is_prefix" `Quick test_oal_is_prefix;
          qcheck prop_oal_merge_preserves_prefix;
          qcheck prop_oal_wire_round_trip;
          Alcotest.test_case "of_wire rejects bad images" `Quick
            test_oal_of_wire_rejects;
          qcheck prop_oal_merge_idempotent;
          qcheck prop_oal_merge_next_ordinal_monotone;
          qcheck prop_oal_merge_matches_reference;
          qcheck prop_oal_purge_only_advances;
          qcheck prop_oal_partial_rewrite;
          Alcotest.test_case "covered merge shares the incoming list" `Quick
            test_merge_covered_shares;
          qcheck prop_merge_matches_general;
          Alcotest.test_case "merge pairs reach the covered case" `Quick
            test_merge_pairs_cover;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "store/dedup" `Quick test_buffers_store_dedup;
          Alcotest.test_case "delivery" `Quick test_buffers_delivery_bookkeeping;
          Alcotest.test_case "compacted stays delivered" `Quick
            test_buffers_compacted_stays_delivered;
          Alcotest.test_case "dpd" `Quick test_buffers_dpd;
          Alcotest.test_case "marks expire" `Quick test_buffers_marks_and_expiry;
          Alcotest.test_case "block origin" `Quick test_buffers_block_origin;
          Alcotest.test_case "purge marked" `Quick test_buffers_purge_marked;
          Alcotest.test_case "wire round trip" `Quick
            test_buffers_wire_round_trip;
          Alcotest.test_case "learn ordinals, id twice" `Quick
            test_buffers_learn_ordinals_duplicate;
          qcheck prop_buffers_indexes_match_model;
          qcheck prop_range_set_matches_set;
          Alcotest.test_case "range set joins runs" `Quick test_range_set_join;
          Alcotest.test_case "state stays bounded" `Quick
            test_buffers_bounded_state;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "unordered weak" `Quick test_delivery_unordered_weak_immediate;
          Alcotest.test_case "total needs ordinal" `Quick test_delivery_total_needs_ordinal;
          Alcotest.test_case "gap blocks" `Quick test_delivery_total_gap_blocks;
          Alcotest.test_case "ordinal order" `Quick test_delivery_total_in_ordinal_order;
          Alcotest.test_case "strong deps" `Quick test_delivery_strong_needs_deps_received;
          Alcotest.test_case "strict stability" `Quick test_delivery_strict_needs_stability;
          Alcotest.test_case "timed waits" `Quick test_delivery_timed_waits;
          Alcotest.test_case "no redelivery" `Quick test_delivery_no_redelivery;
          Alcotest.test_case "blocked reason" `Quick test_delivery_blocked_reason;
          qcheck prop_delivery_matches_rounds;
          Alcotest.test_case "scenarios reach every verdict" `Quick
            test_delivery_scenarios_cover;
        ] );
      ("rotation", [ Alcotest.test_case "ring" `Quick test_rotation ]);
      ( "protocol",
        [
          Alcotest.test_case "total order agreement" `Quick test_protocol_total_order_agreement;
          Alcotest.test_case "nack recovery" `Quick test_protocol_loss_recovery_via_nack;
          Alcotest.test_case "fifo per sender" `Quick test_protocol_fifo_per_sender;
          Alcotest.test_case "stability" `Quick test_protocol_stability_reported;
          qcheck prop_agreement_under_loss;
        ] );
      ( "core",
        [
          Alcotest.test_case "appender ordinal rule" `Quick
            test_core_appender_ordinal;
          Alcotest.test_case "nack holder choice" `Quick test_core_recover_holder;
          Alcotest.test_case "refused receipts" `Quick test_core_receive_refusals;
          qcheck prop_core_overlay_matches_reference;
        ] );
      ( "decision path",
        [
          Alcotest.test_case "every member hears every decision" `Quick
            test_decision_reaches_every_member;
        ] );
    ]
