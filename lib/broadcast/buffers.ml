open Tasim
module Id_map = Proposal.Id_map
module Int_set = Set.Make (Int)

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
  delivered_map : int option Id_map.t; (* delivered id -> ordinal if known *)
  delivered_ordinals : Int_set.t;
  marks : (Proposal.id * Time.t) list;
  blocked_origins : (Proc_id.t * Time.t) list;
  (* Indexes derived from [proposals] and [delivered_map], so the
     per-message paths cost in proportion to the updates in flight,
     not to the delivered history. Every function that writes either
     map keeps each index equal to the recomputation stated beside
     it, and [delivered] answers from them before it falls back to
     the history. *)
  undated : Id_set.t;
      (* ids whose [delivered_map] binding is [None] *)
  pending : 'u Proposal.t Id_map.t;
      (* the [proposals] bindings whose id is not in [delivered_map] *)
  retained : Ord_set.t;
      (* (o, id) for every id in [proposals] bound to [Some o] in
         [delivered_map] *)
}

let empty =
  {
    proposals = Id_map.empty;
    delivered_map = Id_map.empty;
    delivered_ordinals = Int_set.empty;
    marks = [];
    blocked_origins = [];
    undated = Id_set.empty;
    pending = Id_map.empty;
    retained = Ord_set.empty;
  }

let received t id =
  Id_map.mem id t.proposals || Id_map.mem id t.delivered_map

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

let unretain retained id = function
  | Some (Some o) -> Ord_set.remove (o, id) retained
  | Some None | None -> retained

let remove t id =
  {
    t with
    proposals = Id_map.remove id t.proposals;
    pending = Id_map.remove id t.pending;
    retained =
      (if Id_map.mem id t.proposals then
         unretain t.retained id (Id_map.find_opt id t.delivered_map)
       else t.retained);
  }

(* Window first: a stored id is delivered iff it is not pending, since
   [pending] is [proposals] minus [delivered_map]. Only an id the window
   does not hold is looked up in the history. *)
let delivered t id =
  if Id_map.mem id t.proposals then not (Id_map.mem id t.pending)
  else Id_map.mem id t.delivered_map

let note_delivered t id ~ordinal =
  let stored = Id_map.mem id t.proposals in
  let retained =
    if stored then unretain t.retained id (Id_map.find_opt id t.delivered_map)
    else t.retained
  in
  let retained, delivered_ordinals, undated =
    match ordinal with
    | Some o ->
      ( (if stored then Ord_set.add (o, id) retained else retained),
        Int_set.add o t.delivered_ordinals,
        Id_set.remove id t.undated )
    | None -> (retained, t.delivered_ordinals, Id_set.add id t.undated)
  in
  {
    t with
    delivered_map = Id_map.add id ordinal t.delivered_map;
    delivered_ordinals;
    undated;
    pending = Id_map.remove id t.pending;
    retained;
  }

let note_ordinal t id ordinal =
  match Id_map.find_opt id t.delivered_map with
  | Some None ->
    {
      t with
      delivered_map = Id_map.add id (Some ordinal) t.delivered_map;
      delivered_ordinals = Int_set.add ordinal t.delivered_ordinals;
      undated = Id_set.remove id t.undated;
      retained =
        (if Id_map.mem id t.proposals then Ord_set.add (ordinal, id) t.retained
         else t.retained);
    }
  | Some (Some _) | None -> t

(* Only undated ids can learn an ordinal, so walk those instead of the
   oal: under total and timed ordering nothing is delivered undated and
   the walk is empty. *)
let learn_ordinals t ~find =
  Id_set.fold
    (fun id t ->
      match find id with Some o -> note_ordinal t id o | None -> t)
    t.undated t

let delivered_ordinal t o = Int_set.mem o t.delivered_ordinals

let highest_delivered_ordinal t =
  match Int_set.max_elt_opt t.delivered_ordinals with
  | Some o -> o
  | None -> -1

let dpd t = Id_set.elements t.undated

let ordinal_of_delivered t id =
  match Id_map.find_opt id t.delivered_map with
  | Some (Some o) -> Some o
  | Some None | None -> None

(* forget payloads of delivered proposals whose descriptor was purged
   from the oal (stable everywhere, so nobody can ask for them): the
   lowest-ordinal prefix of [retained] *)
let compact t ~below =
  let rec drop proposals retained =
    match Ord_set.min_elt_opt retained with
    | Some ((o, id) as e) when o < below ->
      drop (Id_map.remove id proposals) (Ord_set.remove e retained)
    | Some _ | None -> (proposals, retained)
  in
  let proposals, retained = drop t.proposals t.retained in
  if retained == t.retained then t else { t with proposals; retained }

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

(* Direct walking accessors for the serializer: iterate the live maps
   (ascending id order, same as the {!wire} lists) without
   materializing them. The fold signatures thread the caller's
   accumulator so a statically allocated callback suffices — the
   state-transfer encode path counts on this being allocation-free. *)
let proposal_count t = Id_map.cardinal t.proposals
let fold_proposals f t acc = Id_map.fold f t.proposals acc
let delivered_count t = Id_map.cardinal t.delivered_map
let fold_delivered f t acc = Id_map.fold f t.delivered_map acc
let marks_of t = t.marks
let blocked_of t = t.blocked_origins

type 'u wire = {
  w_proposals : 'u Proposal.t list;
  w_delivered : (Proposal.id * int option) list;
  w_marks : (Proposal.id * Time.t) list;
  w_blocked : (Proc_id.t * Time.t) list;
}

let to_wire t =
  {
    w_proposals = stored t;
    w_delivered = Id_map.bindings t.delivered_map;
    w_marks = t.marks;
    w_blocked = t.blocked_origins;
  }

let of_wire w =
  let proposals =
    List.fold_left
      (fun m (p : 'u Proposal.t) -> Id_map.add p.Proposal.id p m)
      Id_map.empty w.w_proposals
  in
  let delivered_map =
    List.fold_left
      (fun m (id, ordinal) -> Id_map.add id ordinal m)
      Id_map.empty w.w_delivered
  in
  let delivered_ordinals =
    List.fold_left
      (fun s (_, ordinal) ->
        match ordinal with Some o -> Int_set.add o s | None -> s)
      Int_set.empty w.w_delivered
  in
  let undated =
    Id_map.fold
      (fun id ordinal s ->
        match ordinal with None -> Id_set.add id s | Some _ -> s)
      delivered_map Id_set.empty
  in
  let pending, retained =
    Id_map.fold
      (fun id p (pending, retained) ->
        match Id_map.find_opt id delivered_map with
        | None -> (Id_map.add id p pending, retained)
        | Some (Some o) -> (pending, Ord_set.add (o, id) retained)
        | Some None -> (pending, retained))
      proposals (Id_map.empty, Ord_set.empty)
  in
  {
    proposals;
    delivered_map;
    delivered_ordinals;
    marks = w.w_marks;
    blocked_origins = w.w_blocked;
    undated;
    pending;
    retained;
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
