open Tasim
module Id_map = Proposal.Id_map
module Pmap = Proc_id.Map

module Id_set = Set.Make (struct
  type t = Proposal.id

  let compare = Proposal.id_compare
end)

(* (ordinal, id), ordinal first, so everything below a purge frontier
   is one prefix *)
module Ord_set = Set.Make (struct
  type t = int * Proposal.id

  let compare (o1, i1) (o2, i2) =
    match Int.compare o1 o2 with 0 -> Proposal.id_compare i1 i2 | c -> c
end)

type 'u t = {
  proposals : 'u Proposal.t Id_map.t;
      (* every received proposal still of possible use: undelivered, or
         delivered but maybe needed for retransmission until stable *)
  delivered_seqs : Range_set.t Pmap.t;
      (* per origin, the seqs of its delivered proposals; an origin
         with none has no binding *)
  delivered_ordinals : Range_set.t;
  marks : (Proposal.id * Time.t) list;
  blocked_origins : (Proc_id.t * Time.t) list;
  (* Indexes, so the per-message paths cost in proportion to the
     updates in flight. Every function that writes the fields above
     keeps each index equal to the recomputation stated beside it. *)
  undated : Id_set.t;
      (* the delivered ids whose ordinal is not known yet *)
  pending : 'u Proposal.t Id_map.t;
      (* the [proposals] bindings whose id is not delivered *)
  retained : Ord_set.t;
      (* (o, id) for every delivered id in [proposals] whose ordinal o
         is known *)
  dated : int Id_map.t;
      (* the inverse of [retained]: id -> o for each (o, id) in it *)
}

let empty =
  {
    proposals = Id_map.empty;
    delivered_seqs = Pmap.empty;
    delivered_ordinals = Range_set.empty;
    marks = [];
    blocked_origins = [];
    undated = Id_set.empty;
    pending = Id_map.empty;
    retained = Ord_set.empty;
    dated = Id_map.empty;
  }

let seqs_of t origin =
  match Pmap.find origin t.delivered_seqs with
  | seqs -> seqs
  | exception Not_found -> Range_set.empty

(* the history answer, for any id *)
let in_history t (id : Proposal.id) =
  Range_set.mem id.seq (seqs_of t id.origin)

let received t id = Id_map.mem id t.proposals || in_history t id

let store t proposal =
  let id = proposal.Proposal.id in
  if received t id then (t, false)
  else
    ( {
        t with
        proposals = Id_map.add id proposal t.proposals;
        pending = Id_map.add id proposal t.pending;
      },
      true )

let get t id = Id_map.find_opt id t.proposals

let stored t = List.map snd (Id_map.bindings t.proposals)
let pending t = List.map snd (Id_map.bindings t.pending)

(* [retained] and [dated] without, and with, a stored id's ordinal;
   [dated] binds stored ids only, so [unretain] of any other id is the
   pair itself *)
let unretain t id =
  match Id_map.find_opt id t.dated with
  | Some o -> (Ord_set.remove (o, id) t.retained, Id_map.remove id t.dated)
  | None -> (t.retained, t.dated)

let retain (retained, dated) id o =
  (Ord_set.add (o, id) retained, Id_map.add id o dated)

let remove t id =
  if not (Id_map.mem id t.proposals) then t
  else
    let retained, dated = unretain t id in
    {
      t with
      proposals = Id_map.remove id t.proposals;
      pending = Id_map.remove id t.pending;
      retained;
      dated;
    }

(* Window first: a stored id is delivered iff it is not pending. Only
   an id the window does not hold is looked up in the history. *)
let delivered t id =
  if Id_map.mem id t.proposals then not (Id_map.mem id t.pending)
  else in_history t id

let note_delivered t (id : Proposal.id) ~ordinal =
  let stored = Id_map.mem id t.proposals in
  let kept = unretain t id in
  let (retained, dated), delivered_ordinals, undated =
    match ordinal with
    | Some o ->
      ( (if stored then retain kept id o else kept),
        Range_set.add o t.delivered_ordinals,
        Id_set.remove id t.undated )
    | None -> (kept, t.delivered_ordinals, Id_set.add id t.undated)
  in
  let seqs = seqs_of t id.origin in
  let seqs' = Range_set.add id.seq seqs in
  {
    t with
    delivered_seqs =
      (if seqs' == seqs then t.delivered_seqs
       else Pmap.add id.origin seqs' t.delivered_seqs);
    delivered_ordinals;
    undated;
    pending = Id_map.remove id t.pending;
    retained;
    dated;
  }

let note_ordinal t id ordinal =
  if not (Id_set.mem id t.undated) then t
  else
    let kept = (t.retained, t.dated) in
    let retained, dated =
      if Id_map.mem id t.proposals then retain kept id ordinal else kept
    in
    {
      t with
      delivered_ordinals = Range_set.add ordinal t.delivered_ordinals;
      undated = Id_set.remove id t.undated;
      retained;
      dated;
    }

(* Only undated ids can learn an ordinal, so walk those instead of the
   oal: under total and timed ordering nothing is delivered undated and
   the walk is empty. *)
let learn_ordinals t ~find =
  Id_set.fold
    (fun id t ->
      match find id with Some o -> note_ordinal t id o | None -> t)
    t.undated t

let delivered_ordinal t o = Range_set.mem o t.delivered_ordinals

let highest_delivered_ordinal t =
  match Range_set.max_elt_opt t.delivered_ordinals with
  | Some o -> o
  | None -> -1

let dpd t = Id_set.elements t.undated

(* forget payloads of delivered proposals whose descriptor was purged
   from the oal (stable everywhere, so nobody can ask for them): the
   lowest-ordinal prefix of [retained] *)
let compact t ~below =
  let rec drop proposals retained dated =
    match Ord_set.min_elt_opt retained with
    | Some ((o, id) as e) when o < below ->
      drop (Id_map.remove id proposals) (Ord_set.remove e retained)
        (Id_map.remove id dated)
    | Some _ | None -> (proposals, retained, dated)
  in
  let proposals, retained, dated = drop t.proposals t.retained t.dated in
  if retained == t.retained then t
  else { t with proposals; retained; dated }

let mark_undeliverable t id ~expires =
  let marks =
    (id, expires)
    :: List.filter (fun (i, _) -> not (Proposal.id_equal i id)) t.marks
  in
  { t with marks }

let block_origin t origin ~expires =
  let blocked_origins =
    (origin, expires)
    :: List.filter
         (fun (p, _) -> not (Proc_id.equal p origin))
         t.blocked_origins
  in
  { t with blocked_origins }

let is_marked t id ~now =
  List.exists
    (fun (i, expires) ->
      Proposal.id_equal i id && Time.compare now expires <= 0)
    t.marks
  || List.exists
       (fun (p, expires) ->
         Proc_id.equal p id.Proposal.origin && Time.compare now expires <= 0)
       t.blocked_origins

let expire_marks t ~now =
  {
    t with
    marks = List.filter (fun (_, e) -> Time.compare now e <= 0) t.marks;
    blocked_origins =
      List.filter (fun (_, e) -> Time.compare now e <= 0) t.blocked_origins;
  }

(* Direct walking accessors for the serializer: iterate the live
   structures without materializing them. The fold signatures thread
   the caller's accumulator so a statically allocated callback suffices
   — the state-transfer encode path counts on this being
   allocation-free. *)
let proposal_count t = Id_map.cardinal t.proposals
let fold_proposals f t acc = Id_map.fold f t.proposals acc
let delivered_count t = Pmap.cardinal t.delivered_seqs
let fold_delivered f t acc = Pmap.fold f t.delivered_seqs acc
let delivered_ordinals t = t.delivered_ordinals
let undated_count t = Id_set.cardinal t.undated
let fold_undated f t acc = Id_set.fold f t.undated acc
let dated_count t = Id_map.cardinal t.dated
let fold_dated f t acc = Id_map.fold f t.dated acc
let marks_of t = t.marks
let blocked_of t = t.blocked_origins

type 'u wire = {
  w_proposals : 'u Proposal.t list;
  w_delivered : (Proc_id.t * (int * int) list) list;
  w_ordinals : (int * int) list;
  w_undated : Proposal.id list;
  w_dated : (Proposal.id * int) list;
  w_marks : (Proposal.id * Time.t) list;
  w_blocked : (Proc_id.t * Time.t) list;
}

let ranges s = Range_set.fold (fun lo hi acc -> (lo, hi) :: acc) s []

let to_wire t =
  {
    w_proposals = stored t;
    w_delivered =
      List.map
        (fun (p, seqs) -> (p, ranges seqs))
        (Pmap.bindings t.delivered_seqs);
    w_ordinals = ranges t.delivered_ordinals;
    w_undated = Id_set.elements t.undated;
    w_dated = Id_map.bindings t.dated;
    w_marks = t.marks;
    w_blocked = t.blocked_origins;
  }

(* Total on any image: an origin listed twice gets the union of its
   ranges, and an undated or dated id that the image does not show
   delivered (or, for a dated one, stored and not undated) is dropped,
   so every index keeps its invariant. *)
let of_wire w =
  let proposals =
    List.fold_left
      (fun m (p : 'u Proposal.t) -> Id_map.add p.Proposal.id p m)
      Id_map.empty w.w_proposals
  in
  let delivered_seqs =
    List.fold_left
      (fun m (origin, rs) ->
        let prior =
          match Pmap.find_opt origin m with Some s -> ranges s | None -> []
        in
        let seqs = Range_set.of_ranges (rs @ prior) in
        if Range_set.is_empty seqs then m else Pmap.add origin seqs m)
      Pmap.empty w.w_delivered
  in
  let t =
    {
      empty with
      proposals;
      delivered_seqs;
      delivered_ordinals = Range_set.of_ranges w.w_ordinals;
      marks = w.w_marks;
      blocked_origins = w.w_blocked;
    }
  in
  let undated =
    List.fold_left
      (fun s id -> if in_history t id then Id_set.add id s else s)
      Id_set.empty w.w_undated
  in
  let dated =
    List.fold_left
      (fun m (id, o) ->
        if Id_map.mem id proposals && in_history t id
           && not (Id_set.mem id undated)
        then Id_map.add id o m
        else m)
      Id_map.empty w.w_dated
  in
  {
    t with
    undated;
    pending = Id_map.filter (fun id _ -> not (in_history t id)) proposals;
    retained =
      Id_map.fold (fun id o s -> Ord_set.add (o, id) s) dated Ord_set.empty;
    dated;
  }

(* only undelivered proposals are purged, so only [pending] is walked *)
let purge_marked t ~now =
  let purged, pending =
    Id_map.partition (fun id _ -> is_marked t id ~now) t.pending
  in
  if Id_map.is_empty purged then t
  else
    {
      t with
      proposals =
        Id_map.fold (fun id _ m -> Id_map.remove id m) purged t.proposals;
      pending;
    }
