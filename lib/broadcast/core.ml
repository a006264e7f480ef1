open Tasim

type scratch = {
  sc_ids : Proposal.id list array; (* per holder, newest first *)
  mutable sc_holders : int list; (* dirty slots, reverse touch order *)
}

module Ordinals = Set.Make (Int)

(* The explicit oal, the list a member of the paper holds, is [oal]
   with [self] added to the acks of every entry whose ordinal is in
   [own]. [oal] itself is shared: after a covered merge it is the
   decider's list, physically, so a receipt rebuilds no entry to write
   this process's acks. [own] names only ordinals of entries [oal]
   holds, or held before a purge dropped them; it may name an entry
   [oal] already acks for [self]. *)
type 'u t = {
  self : Proc_id.t;
  n : int;
  oal : Oal.t;
  own : Ordinals.t;
  buffers : 'u Buffers.t;
  next_seq : int;
  scratch : scratch;
}

let create ~self ~n =
  {
    self;
    n;
    oal = Oal.empty;
    own = Ordinals.empty;
    buffers = Buffers.empty;
    next_seq = 0;
    scratch = { sc_ids = Array.make n []; sc_holders = [] };
  }

let self t = t.self
let n t = t.n
let buffers t = t.buffers
let set_buffers t buffers = { t with buffers }

let oal t =
  if Ordinals.is_empty t.own then t.oal
  else Oal.add_acks t.oal ~by:t.self (fun o -> Ordinals.mem o t.own)

let set_oal t oal = { t with oal; own = Ordinals.empty }
let latest_membership t = Oal.latest_membership t.oal

let acked t (e : Oal.entry) =
  Proc_set.mem t.self e.Oal.acks || Ordinals.mem e.Oal.ordinal t.own

let info_of (p : 'u Proposal.t) =
  {
    Oal.proposal_id = p.Proposal.id;
    semantics = p.Proposal.semantics;
    send_ts = p.Proposal.send_ts;
    hdo = p.Proposal.hdo;
  }

(* [Oal.ack_update] into the overlay *)
let ack t id =
  match Oal.find_update t.oal id with
  | Some e when not (acked t e) ->
    { t with own = Ordinals.add e.Oal.ordinal t.own }
  | Some _ | None -> t

let submit t ~clock ~semantics payload =
  let p =
    Proposal.make ~origin:t.self ~seq:t.next_seq ~semantics ~send_ts:clock
      ~hdo:(Buffers.highest_delivered_ordinal t.buffers)
      payload
  in
  let buffers, _ = Buffers.store t.buffers p in
  let t = ack t p.Proposal.id in
  ({ t with buffers; next_seq = t.next_seq + 1 }, p)

let receive t ~now (p : 'u Proposal.t) =
  if Buffers.is_marked t.buffers p.Proposal.id ~now then None
  else
    match Buffers.store t.buffers p with
    | _, false -> None
    | buffers, true -> Some (ack { t with buffers } p.Proposal.id)

let retransmits t missing = List.filter_map (Buffers.get t.buffers) missing

(* The paper's "ack every received descriptor", into the overlay: a
   membership descriptor in the list was received with it, an update
   when its proposal was *)
let view t =
  let own = ref t.own in
  Oal.iter_entries t.oal (fun e ->
      if
        (not (Proc_set.mem t.self e.Oal.acks))
        && (not (Ordinals.mem e.Oal.ordinal !own))
        &&
        match e.Oal.body with
        | Oal.Update info -> Buffers.received t.buffers info.Oal.proposal_id
        | Oal.Membership _ -> true
      then own := Ordinals.add e.Oal.ordinal !own);
  if !own == t.own then t else { t with own = !own }

let learn t =
  let find = Oal.first_update_ordinal t.oal in
  { t with buffers = Buffers.learn_ordinals t.buffers ~find }

let adopt t oal = learn (view (set_oal t oal))

let merge t ~incoming =
  learn (view { t with oal = Oal.merge ~local:t.oal ~incoming })

let unordered t id ~now =
  not (Oal.mem_update t.oal id || Buffers.is_marked t.buffers id ~now)

exception Unordered

let holds_unordered t ~now =
  match
    Buffers.fold_proposals
      (fun id _ () -> if unordered t id ~now then raise Unordered)
      t.buffers ()
  with
  | () -> false
  | exception Unordered -> true

(* The ack bit means "has merged an oal containing this descriptor (and
   holds the payload)": only the appender qualifies at append time.
   Pre-acking the origin would let the entry stabilize and be purged
   before the origin ever learned its ordinal, leaving it a silent
   gap. Stored ids are distinct, so an append never changes whether a
   later one is [unordered]. *)
let order_pending t ~now =
  let acks = Proc_set.singleton t.self in
  let append oal (p : 'u Proposal.t) =
    if unordered t p.Proposal.id ~now then
      fst (Oal.append_update oal (info_of p) ~acks)
    else oal
  in
  { t with oal = List.fold_left append t.oal (Buffers.stored t.buffers) }

let refresh t ~group =
  let others = Proc_set.remove t.self group in
  let stable e =
    Proc_set.subset (if acked t e then others else group) e.Oal.acks
  in
  { t with oal = Oal.mark_stable t.oal stable }

let purge t =
  let delivered o = Buffers.delivered_ordinal t.buffers o in
  let oal = Oal.purge_stable t.oal ~delivered in
  let low = Oal.low oal in
  let rec trim own =
    match Ordinals.min_elt_opt own with
    | Some o when o < low -> trim (Ordinals.remove o own)
    | Some _ | None -> own
  in
  {
    t with
    oal;
    own = (if low = Oal.low t.oal then t.own else trim t.own);
    buffers = Buffers.compact t.buffers ~below:low;
  }

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
        let acks =
          if Ordinals.mem e.Oal.ordinal t.own then Proc_set.add t.self e.Oal.acks
          else e.Oal.acks
        in
        let holders =
          let members = Proc_set.inter acks group in
          if Proc_set.is_empty members then acks else members
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
