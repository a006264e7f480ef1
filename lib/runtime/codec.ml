open Tasim
open Broadcast
open Timewheel

let version = 2
let max_frame = 65507

type error =
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Length_mismatch of { declared : int; actual : int }
  | Malformed of string

let pp_error ppf = function
  | Truncated -> Fmt.string ppf "truncated frame"
  | Bad_magic -> Fmt.string ppf "bad magic"
  | Bad_version v -> Fmt.pf ppf "unsupported version %d" v
  | Length_mismatch { declared; actual } ->
    Fmt.pf ppf "length mismatch (declared %d, actual %d)" declared actual
  | Malformed msg -> Fmt.pf ppf "malformed body: %s" msg

type ('u, 'app) payload = {
  write_u : Wire.writer -> 'u -> unit;
  read_u : Wire.reader -> 'u;
  write_app : Wire.writer -> 'app -> unit;
  read_app : Wire.reader -> 'app;
}

(* monomorphic recursive walk: [Wire.list] builds an [(f w)] closure on
   every call, which is the only allocation left on the state-transfer
   encode path *)
let rec w_string_items w = function
  | [] -> ()
  | s :: rest ->
    Wire.string w s;
    w_string_items w rest

let w_string_list w ss =
  Wire.int w (List.length ss);
  w_string_items w ss

let string_payload =
  {
    write_u = Wire.string;
    read_u = Wire.r_string;
    write_app = w_string_list;
    read_app = Wire.(r_list r_string);
  }

(* ---------------------------------------------------------------- *)
(* Leaf encoders *)

let w_proc w p = Wire.int w (Proc_id.to_int p)

let r_proc r =
  let i = Wire.r_int r in
  if i < 0 then Wire.fail "negative proc id";
  Proc_id.of_int i
let w_time w (t : Time.t) = Wire.int w (Time.to_us t)
let r_time r : Time.t = Time.of_us (Wire.r_int r)

(* Per-domain codec scratch, in domain-local storage so sharded
   clusters encode and decode concurrently without sharing mutable
   state. Within one domain the codec stays non-re-entrant (one frame
   at a time), which the runtime's single-threaded node loop
   guarantees; [Domain.DLS.get] is allocation-free after first touch,
   so the zero-allocation data plane survives.

   [sc_writer] is the writer a frame is currently being encoded into:
   iterating sets and oal entries through statically allocated
   callbacks that read this cell — instead of closures capturing the
   writer — keeps the per-datagram encode at zero heap allocation.

   [sc_sets] is the reused set builder: a decision frame at 64 members
   carries dozens of proc sets; building each via [Proc_set.of_list]
   costs an array copy per element plus the intermediate list, the
   builder one allocation per set. Sets never nest, so one per domain
   suffices.

   [sc_entries] is the oal-entry scratch: entries are parsed into this
   array and handed to [Oal.of_wire_indexed], skipping the
   intermediate list a [Wire.r_list] parse would build. Grows to the
   largest oal seen; stale slots beyond the current count are ignored.

   [sc_reader] is the reused frame reader for the decode path — one
   long-lived reader re-aimed per frame instead of allocated per
   frame. *)
type scratch = {
  mutable sc_writer : Wire.writer;
  sc_sets : Proc_set.Builder.t;
  mutable sc_entries : Oal.entry array;
  sc_reader : Wire.reader;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        sc_writer = Wire.writer ();
        sc_sets = Proc_set.Builder.create ();
        sc_entries = [||];
        sc_reader = Wire.reader "";
      })

let iter_proc p = w_proc (Domain.DLS.get scratch_key).sc_writer p

(* count + ascending members — the same bytes [Wire.list] over
   [Proc_set.to_list] produced, without materializing the list or
   building a per-call closure *)
let w_proc_set w s =
  Wire.int w (Proc_set.cardinal s);
  Proc_set.iter iter_proc s

let r_proc_set r =
  let count = Wire.r_int r in
  if count < 0 then Wire.fail "negative list count";
  if count > Wire.remaining r then Wire.fail "list count overruns frame";
  let set_builder = (Domain.DLS.get scratch_key).sc_sets in
  Proc_set.Builder.clear set_builder;
  for _ = 1 to count do
    Proc_set.Builder.add set_builder (r_proc r)
  done;
  Proc_set.Builder.build set_builder

let w_group_id w (g : Group_id.t) =
  Wire.int w (Group_id.epoch g);
  Wire.int w (Group_id.seq g)

let r_group_id r =
  let epoch = Wire.r_int r in
  let seq = Wire.r_int r in
  Group_id.v ~epoch ~seq

let w_ordering w (o : Semantics.ordering) =
  Wire.byte w
    (match o with Semantics.Unordered -> 0 | Total -> 1 | Timed -> 2)

let r_ordering r : Semantics.ordering =
  match Wire.r_byte r with
  | 0 -> Unordered
  | 1 -> Total
  | 2 -> Timed
  | b -> Wire.fail (Printf.sprintf "bad ordering tag %d" b)

let w_atomicity w (a : Semantics.atomicity) =
  Wire.byte w (match a with Semantics.Weak -> 0 | Strong -> 1 | Strict -> 2)

let r_atomicity r : Semantics.atomicity =
  match Wire.r_byte r with
  | 0 -> Weak
  | 1 -> Strong
  | 2 -> Strict
  | b -> Wire.fail (Printf.sprintf "bad atomicity tag %d" b)

let w_semantics w (s : Semantics.t) =
  w_ordering w s.Semantics.ordering;
  w_atomicity w s.Semantics.atomicity

let r_semantics r =
  let ordering = r_ordering r in
  let atomicity = r_atomicity r in
  { Semantics.ordering; atomicity }

let w_proposal_id w (id : Proposal.id) =
  w_proc w id.Proposal.origin;
  Wire.int w id.Proposal.seq

let r_proposal_id r =
  let origin = r_proc r in
  let seq = Wire.r_int r in
  { Proposal.origin; seq }

let w_proposal pc w (p : _ Proposal.t) =
  w_proposal_id w p.Proposal.id;
  w_semantics w p.semantics;
  w_time w p.send_ts;
  Wire.int w p.hdo;
  pc.write_u w p.payload

let r_proposal pc r =
  let id = r_proposal_id r in
  let semantics = r_semantics r in
  let send_ts = r_time r in
  let hdo = Wire.r_int r in
  let payload = pc.read_u r in
  { Proposal.id; semantics; send_ts; hdo; payload }

let w_update_info w (u : Oal.update_info) =
  w_proposal_id w u.Oal.proposal_id;
  w_semantics w u.semantics;
  w_time w u.send_ts;
  Wire.int w u.hdo

let r_update_info r =
  let proposal_id = r_proposal_id r in
  let semantics = r_semantics r in
  let send_ts = r_time r in
  let hdo = Wire.r_int r in
  { Oal.proposal_id; semantics; send_ts; hdo }

let w_oal_body w (b : Oal.body) =
  match b with
  | Oal.Update u ->
    Wire.byte w 0;
    w_update_info w u
  | Oal.Membership { group; group_id } ->
    Wire.byte w 1;
    w_proc_set w group;
    w_group_id w group_id

let r_oal_body r : Oal.body =
  match Wire.r_byte r with
  | 0 -> Oal.Update (r_update_info r)
  | 1 ->
    let group = r_proc_set r in
    let group_id = r_group_id r in
    Oal.Membership { group; group_id }
  | b -> Wire.fail (Printf.sprintf "bad oal body tag %d" b)

let w_oal_entry w (e : Oal.entry) =
  Wire.int w e.Oal.ordinal;
  w_oal_body w e.body;
  w_proc_set w e.acks;
  Wire.bool w e.undeliverable;
  Wire.bool w e.known_stable

let r_oal_entry r =
  let ordinal = Wire.r_int r in
  let body = r_oal_body r in
  let acks = r_proc_set r in
  let undeliverable = Wire.r_bool r in
  let known_stable = Wire.r_bool r in
  { Oal.ordinal; body; acks; undeliverable; known_stable }

let w_latest w (ordinal, group, group_id) =
  Wire.int w ordinal;
  w_proc_set w group;
  w_group_id w group_id

let r_latest r =
  let ordinal = Wire.r_int r in
  let group = r_proc_set r in
  let group_id = r_group_id r in
  (ordinal, group, group_id)

let iter_oal_entry _ordinal e =
  w_oal_entry (Domain.DLS.get scratch_key).sc_writer e

(* field-for-field the bytes of the [Oal.to_wire] view, but walking the
   live structure directly: the oal rides in every decision message, so
   its encoder is the steady-state hot path and must not allocate *)
let w_oal w oal =
  Wire.int w (Oal.low oal);
  Wire.int w (Oal.next_ordinal oal);
  Wire.int w (Oal.cardinal oal);
  Oal.iter_entries_ord oal iter_oal_entry;
  Wire.option w_latest w (Oal.latest_membership oal)

let r_oal r =
  let w_low = Wire.r_int r in
  let w_next_ordinal = Wire.r_int r in
  let count = Wire.r_int r in
  if count < 0 then Wire.fail "negative list count";
  if count > Wire.remaining r then Wire.fail "list count overruns frame";
  let scratch = Domain.DLS.get scratch_key in
  if count > 0 then begin
    let e0 = r_oal_entry r in
    if Array.length scratch.sc_entries < count then
      scratch.sc_entries <- Array.make (Stdlib.max count 64) e0
    else scratch.sc_entries.(0) <- e0;
    let sc = scratch.sc_entries in
    for i = 1 to count - 1 do
      sc.(i) <- r_oal_entry r
    done
  end;
  let w_latest = Wire.r_option r_latest r in
  let sc = scratch.sc_entries in
  match
    Oal.of_wire_indexed ~low:w_low ~next_ordinal:w_next_ordinal
      ~latest:w_latest ~count
      ~entry:(fun i -> sc.(i))
  with
  | Ok oal -> oal
  | Error msg -> Wire.fail msg

(* Monomorphic recursive list writers and accumulator-threaded fold
   callbacks: [Wire.list f w items] costs one [(f w)] partial
   application per call, and [Buffers.to_wire] materializes the wire
   lists — together the residual minor words the state-transfer (and
   nack / no-decision / reconfiguration) encode paths showed. Walking
   the live structure with full applications emits identical bytes
   with zero allocation. *)

let fold_w_proposal _id (p : _ Proposal.t) pc =
  w_proposal pc (Domain.DLS.get scratch_key).sc_writer p;
  pc

let fold_w_range lo hi () =
  let w = (Domain.DLS.get scratch_key).sc_writer in
  Wire.int w lo;
  Wire.int w hi

let w_ranges w set =
  Wire.int w (Range_set.cardinal set);
  Range_set.fold fold_w_range set ()

let fold_w_delivered origin seqs () =
  let w = (Domain.DLS.get scratch_key).sc_writer in
  w_proc w origin;
  w_ranges w seqs

let fold_w_undated id () =
  w_proposal_id (Domain.DLS.get scratch_key).sc_writer id

let fold_w_dated id ordinal () =
  let w = (Domain.DLS.get scratch_key).sc_writer in
  w_proposal_id w id;
  Wire.int w ordinal

let rec w_mark_items w = function
  | [] -> ()
  | (id, expires) :: rest ->
    w_proposal_id w id;
    w_time w expires;
    w_mark_items w rest

let rec w_blocked_items w = function
  | [] -> ()
  | (p, expires) :: rest ->
    w_proc w p;
    w_time w expires;
    w_blocked_items w rest

let w_buffers pc w buffers =
  Wire.int w (Buffers.proposal_count buffers);
  let (_ : _ payload) = Buffers.fold_proposals fold_w_proposal buffers pc in
  Wire.int w (Buffers.delivered_count buffers);
  Buffers.fold_delivered fold_w_delivered buffers ();
  w_ranges w (Buffers.delivered_ordinals buffers);
  Wire.int w (Buffers.undated_count buffers);
  Buffers.fold_undated fold_w_undated buffers ();
  Wire.int w (Buffers.dated_count buffers);
  Buffers.fold_dated fold_w_dated buffers ();
  let marks = Buffers.marks_of buffers in
  Wire.int w (List.length marks);
  w_mark_items w marks;
  let blocked = Buffers.blocked_of buffers in
  Wire.int w (List.length blocked);
  w_blocked_items w blocked

let r_range r =
  let lo = Wire.r_int r in
  let hi = Wire.r_int r in
  if lo > hi then Wire.fail "empty range";
  (lo, hi)

let r_buffers pc r =
  let w_proposals = Wire.r_list (r_proposal pc) r in
  let w_delivered =
    Wire.r_list
      (fun r ->
        let origin = r_proc r in
        let seqs = Wire.r_list r_range r in
        (origin, seqs))
      r
  in
  let w_ordinals = Wire.r_list r_range r in
  let w_undated = Wire.r_list r_proposal_id r in
  let w_dated =
    Wire.r_list
      (fun r ->
        let id = r_proposal_id r in
        let ordinal = Wire.r_int r in
        (id, ordinal))
      r
  in
  let w_marks =
    Wire.r_list
      (fun r ->
        let id = r_proposal_id r in
        let expires = r_time r in
        (id, expires))
      r
  in
  let w_blocked =
    Wire.r_list
      (fun r ->
        let p = r_proc r in
        let expires = r_time r in
        (p, expires))
      r
  in
  Buffers.of_wire
    {
      Buffers.w_proposals;
      w_delivered;
      w_ordinals;
      w_undated;
      w_dated;
      w_marks;
      w_blocked;
    }

(* ---------------------------------------------------------------- *)
(* Control messages *)

let rec w_proposal_id_items w = function
  | [] -> ()
  | id :: rest ->
    w_proposal_id w id;
    w_proposal_id_items w rest

let w_proposal_id_list w ids =
  Wire.int w (List.length ids);
  w_proposal_id_items w ids

let rec w_update_info_items w = function
  | [] -> ()
  | u :: rest ->
    w_update_info w u;
    w_update_info_items w rest

let w_update_info_list w us =
  Wire.int w (List.length us);
  w_update_info_items w us

let w_control pc w (m : _ Control_msg.t) =
  match m with
  | Control_msg.Submit { semantics; payload } ->
    Wire.byte w 0;
    w_semantics w semantics;
    pc.write_u w payload
  | Proposal_msg p ->
    Wire.byte w 1;
    w_proposal pc w p
  | Retransmit p ->
    Wire.byte w 2;
    w_proposal pc w p
  | Nack { missing } ->
    Wire.byte w 3;
    w_proposal_id_list w missing
  | Decision { d_ts; d_oal; d_alive } ->
    Wire.byte w 4;
    w_time w d_ts;
    w_oal w d_oal;
    w_proc_set w d_alive
  | No_decision { nd_ts; nd_suspect; nd_since; nd_view; nd_dpd; nd_alive } ->
    Wire.byte w 5;
    w_time w nd_ts;
    w_proc w nd_suspect;
    w_time w nd_since;
    w_oal w nd_view;
    w_update_info_list w nd_dpd;
    w_proc_set w nd_alive
  | Join_msg { j_ts; j_list; j_alive; j_epoch } ->
    Wire.byte w 6;
    w_time w j_ts;
    w_proc_set w j_list;
    w_proc_set w j_alive;
    Wire.int w j_epoch
  | Reconfig { r_ts; r_list; r_last_decision_ts; r_view; r_dpd; r_alive } ->
    Wire.byte w 7;
    w_time w r_ts;
    w_proc_set w r_list;
    w_time w r_last_decision_ts;
    w_oal w r_view;
    w_update_info_list w r_dpd;
    w_proc_set w r_alive
  | State_transfer { st_ts; st_group; st_group_id; st_oal; st_app; st_buffers }
    ->
    Wire.byte w 8;
    w_time w st_ts;
    w_proc_set w st_group;
    w_group_id w st_group_id;
    w_oal w st_oal;
    pc.write_app w st_app;
    w_buffers pc w st_buffers

let r_control pc r : _ Control_msg.t =
  match Wire.r_byte r with
  | 0 ->
    let semantics = r_semantics r in
    let payload = pc.read_u r in
    Control_msg.Submit { semantics; payload }
  | 1 -> Proposal_msg (r_proposal pc r)
  | 2 -> Retransmit (r_proposal pc r)
  | 3 -> Nack { missing = Wire.r_list r_proposal_id r }
  | 4 ->
    let d_ts = r_time r in
    let d_oal = r_oal r in
    let d_alive = r_proc_set r in
    Decision { d_ts; d_oal; d_alive }
  | 5 ->
    let nd_ts = r_time r in
    let nd_suspect = r_proc r in
    let nd_since = r_time r in
    let nd_view = r_oal r in
    let nd_dpd = Wire.r_list r_update_info r in
    let nd_alive = r_proc_set r in
    No_decision { nd_ts; nd_suspect; nd_since; nd_view; nd_dpd; nd_alive }
  | 6 ->
    let j_ts = r_time r in
    let j_list = r_proc_set r in
    let j_alive = r_proc_set r in
    let j_epoch = Wire.r_int r in
    Join_msg { j_ts; j_list; j_alive; j_epoch }
  | 7 ->
    let r_ts = r_time r in
    let r_list = r_proc_set r in
    let r_last_decision_ts = r_time r in
    let r_view = r_oal r in
    let r_dpd = Wire.r_list r_update_info r in
    let r_alive = r_proc_set r in
    Reconfig { r_ts; r_list; r_last_decision_ts; r_view; r_dpd; r_alive }
  | 8 ->
    let st_ts = r_time r in
    let st_group = r_proc_set r in
    let st_group_id = r_group_id r in
    let st_oal = r_oal r in
    let st_app = pc.read_app r in
    let st_buffers = r_buffers pc r in
    State_transfer { st_ts; st_group; st_group_id; st_oal; st_app; st_buffers }
  (* tag 9 stays unassigned: a frame from an older build that still
     sends it must be refused as a bad tag, not read as another kind *)
  | b -> Wire.fail (Printf.sprintf "bad control tag %d" b)

let w_cs w (m : Clocksync.Protocol.msg) =
  match m with
  | Clocksync.Protocol.Request { seq; sender_clock } ->
    Wire.byte w 0;
    Wire.int w seq;
    w_time w sender_clock
  | Reply { seq; echo_sender_clock; replier_clock } ->
    Wire.byte w 1;
    Wire.int w seq;
    w_time w echo_sender_clock;
    w_time w replier_clock

let r_cs r : Clocksync.Protocol.msg =
  match Wire.r_byte r with
  | 0 ->
    let seq = Wire.r_int r in
    let sender_clock = r_time r in
    Request { seq; sender_clock }
  | 1 ->
    let seq = Wire.r_int r in
    let echo_sender_clock = r_time r in
    let replier_clock = r_time r in
    Reply { seq; echo_sender_clock; replier_clock }
  | b -> Wire.fail (Printf.sprintf "bad clocksync tag %d" b)

let w_msg pc w (m : _ Full_stack.msg) =
  match m with
  | Full_stack.Cs cs ->
    Wire.byte w 0;
    w_cs w cs
  | Full_stack.Gc gc ->
    Wire.byte w 1;
    w_control pc w gc

let r_msg pc r : _ Full_stack.msg =
  match Wire.r_byte r with
  | 0 -> Full_stack.Cs (r_cs r)
  | 1 -> Full_stack.Gc (r_control pc r)
  | b -> Wire.fail (Printf.sprintf "bad stack tag %d" b)

(* ---------------------------------------------------------------- *)
(* Framing *)

let magic0 = 'T'
let magic1 = 'W'

(* header, then the body inside a length frame: single pass, no body
   staging buffer, and byte-for-byte the format documented in the mli
   (the length varint is never padded) *)
let write_frame pc ~sender msg w =
  (Domain.DLS.get scratch_key).sc_writer <- w;
  Wire.byte w (Char.code magic0);
  Wire.byte w (Char.code magic1);
  Wire.byte w version;
  Wire.int w (Proc_id.to_int sender);
  let mark = Wire.begin_frame w in
  w_msg pc w msg;
  Wire.end_frame w mark

let encode pc ~sender msg =
  let w = Wire.writer () in
  write_frame pc ~sender msg w;
  Wire.contents w

let encode_to pc ~sender msg w =
  Wire.reset w;
  write_frame pc ~sender msg w;
  Wire.pos w

let decode_window pc data ~pos ~len =
  if len < 3 then Error Truncated
  else if data.[pos] <> magic0 || data.[pos + 1] <> magic1 then Error Bad_magic
  else if Char.code data.[pos + 2] <> version then
    Error (Bad_version (Char.code data.[pos + 2]))
  else begin
    (* reused per-domain reader: no allocation per frame. Sound for
       the same reason the scratch writer is — frames decode one at a
       time per domain, and nothing retains the reader past the call *)
    let r = (Domain.DLS.get scratch_key).sc_reader in
    Wire.reset_window r data ~pos:(pos + 3) ~len:(len - 3);
    (* the two header ints are matched one at a time — pairing them up
       would build a tuple per frame on an otherwise allocation-lean
       path *)
    match Wire.r_int r with
    | exception Wire.Error _ -> Error Truncated
    | sender when sender < 0 -> Error (Malformed "negative sender id")
    | sender -> (
      match Wire.r_int r with
      | exception Wire.Error _ -> Error Truncated
      | declared ->
        let actual = Wire.remaining r in
        if declared <> actual then Error (Length_mismatch { declared; actual })
        else begin
          match
            let msg = r_msg pc r in
            if Wire.remaining r <> 0 then
              Wire.fail "trailing bytes after message";
            msg
          with
          | exception Wire.Error msg -> Error (Malformed msg)
          (* domain-validating constructors (Proc_id, Time, ...) raise on
             out-of-range values a mutated frame can carry; the codec is
             total, so those surface as Malformed too *)
          | exception Invalid_argument msg -> Error (Malformed msg)
          | exception Failure msg -> Error (Malformed msg)
          | msg -> Ok (Proc_id.of_int sender, msg)
        end)
  end

let decode pc frame = decode_window pc frame ~pos:0 ~len:(String.length frame)

let decode_bytes pc buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Codec.decode_bytes: window out of bounds";
  (* zero-copy: the window is only read, never kept past the call *)
  decode_window pc (Bytes.unsafe_to_string buf) ~pos ~len
