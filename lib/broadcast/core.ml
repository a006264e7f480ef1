open Tasim

type scratch = {
  sc_ids : Proposal.id list array; (* per holder, newest first *)
  mutable sc_holders : int list; (* dirty slots, reverse touch order *)
}

type 'u t = {
  self : Proc_id.t;
  n : int;
  oal : Oal.t;
  buffers : 'u Buffers.t;
  next_seq : int;
  scratch : scratch;
}

let create ~self ~n =
  {
    self;
    n;
    oal = Oal.empty;
    buffers = Buffers.empty;
    next_seq = 0;
    scratch = { sc_ids = Array.make n []; sc_holders = [] };
  }

let info_of (p : 'u Proposal.t) =
  {
    Oal.proposal_id = p.Proposal.id;
    semantics = p.Proposal.semantics;
    send_ts = p.Proposal.send_ts;
    hdo = p.Proposal.hdo;
  }

let submit t ~clock ~semantics payload =
  let p =
    Proposal.make ~origin:t.self ~seq:t.next_seq ~semantics ~send_ts:clock
      ~hdo:(Buffers.highest_delivered_ordinal t.buffers)
      payload
  in
  let buffers, _ = Buffers.store t.buffers p in
  let oal = Oal.ack_update t.oal p.Proposal.id t.self in
  ({ t with oal; buffers; next_seq = t.next_seq + 1 }, p)

let receive t ~now (p : 'u Proposal.t) =
  if Buffers.is_marked t.buffers p.Proposal.id ~now then None
  else
    match Buffers.store t.buffers p with
    | _, false -> None
    | buffers, true ->
      Some { t with buffers; oal = Oal.ack_update t.oal p.Proposal.id t.self }

let retransmits t missing = List.filter_map (Buffers.get t.buffers) missing

let view t =
  let received id = Buffers.received t.buffers id in
  { t with oal = Oal.ack_all_received t.oal ~received ~by:t.self }

let adopt t oal =
  let t = view { t with oal } in
  let find = Oal.first_update_ordinal t.oal in
  { t with buffers = Buffers.learn_ordinals t.buffers ~find }

(* The ack bit means "has merged an oal containing this descriptor (and
   holds the payload)": only the appender qualifies at append time.
   Pre-acking the origin would let the entry stabilize and be purged
   before the origin ever learned its ordinal, leaving it a silent
   gap. *)
let order_pending t ~now =
  let acks = Proc_set.singleton t.self in
  let append oal (p : 'u Proposal.t) =
    if
      Oal.mem_update oal p.Proposal.id
      || Buffers.is_marked t.buffers p.Proposal.id ~now
    then oal
    else fst (Oal.append_update oal (info_of p) ~acks)
  in
  { t with oal = List.fold_left append t.oal (Buffers.stored t.buffers) }

let refresh t ~group = { t with oal = Oal.refresh_stability t.oal ~group }

let purge t =
  let delivered o = Buffers.delivered_ordinal t.buffers o in
  let oal = Oal.purge_stable t.oal ~delivered in
  { t with oal; buffers = Buffers.compact t.buffers ~below:(Oal.low oal) }

let deliver t ~now ~timed_delay =
  let deliveries, buffers =
    Delivery.step ~oal:t.oal ~buffers:t.buffers ~now_sync:now ~timed_delay
  in
  ({ t with buffers }, deliveries)

(* Missing updates are batched per holder in the reused scratch arrays
   (one slot per process) instead of a per-call table, and the oal is
   walked directly instead of materializing a missing-list. An acked
   process that left [group] can no longer retransmit, so a member
   holder is preferred. *)
let recover t ~group =
  let sc = t.scratch in
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
        | Some holder ->
          let hi = Proc_id.to_int holder in
          if sc.sc_ids.(hi) = [] then sc.sc_holders <- hi :: sc.sc_holders;
          sc.sc_ids.(hi) <- info.Oal.proposal_id :: sc.sc_ids.(hi)
        | None -> ())
      | Oal.Update _ | Oal.Membership _ -> ());
  let nacks =
    List.fold_left
      (fun acc hi ->
        let ids = sc.sc_ids.(hi) in
        sc.sc_ids.(hi) <- [];
        (Proc_id.of_int hi, List.rev ids) :: acc)
      [] sc.sc_holders
  in
  sc.sc_holders <- [];
  nacks

let dpd t =
  List.filter_map
    (fun id -> Option.map info_of (Buffers.get t.buffers id))
    (Buffers.dpd t.buffers)
