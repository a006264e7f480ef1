(* Live-runtime unit tests: the wire codec and stable storage.

   The codec is the trust boundary of the live runtime — every byte a
   member acts on crossed it — so it gets the property treatment:
   round-trips over all nine Control_msg variants (with epoch-qualified
   group ids) plus both clocksync messages, and rejection of truncated,
   over-length, wrong-version and junk frames without ever raising.

   Structural equality of decoded messages is checked through the
   canonical-bytes trick: [encode] is deterministic, so
   [encode (decode (encode m)) = encode m] holds iff decoding loses
   nothing the codec can represent. *)

open Tasim
open Broadcast
open Timewheel
open Runtime

let qcheck = QCheck_alcotest.to_alcotest
let pid = Proc_id.of_int
let n = 8

(* ------------------------------------------------------------------ *)
(* generators *)

let gen_proc = QCheck.Gen.map pid (QCheck.Gen.int_bound (n - 1))

let gen_set =
  QCheck.Gen.map
    (fun ids -> Proc_set.of_list (List.map pid ids))
    QCheck.Gen.(list_size (int_bound n) (int_bound (n - 1)))

let gen_time = QCheck.Gen.map Time.of_us (QCheck.Gen.int_bound 10_000_000)

(* spans several epochs: the codec must carry recovery-bumped ids *)
let gen_group_id =
  QCheck.Gen.map2
    (fun epoch seq -> { Group_id.epoch; seq })
    (QCheck.Gen.int_bound 3) (QCheck.Gen.int_bound 50)

let gen_semantics = QCheck.Gen.oneofl Semantics.all

let gen_proposal_id =
  QCheck.Gen.map2
    (fun origin seq -> { Proposal.origin; seq })
    gen_proc (QCheck.Gen.int_bound 200)

let gen_payload = QCheck.Gen.(string_size (int_bound 40))

let gen_proposal =
  QCheck.Gen.(
    gen_proposal_id >>= fun id ->
    gen_semantics >>= fun semantics ->
    gen_time >>= fun send_ts ->
    int_range (-1) 30 >>= fun hdo ->
    gen_payload >>= fun payload ->
    return
      (Proposal.make ~origin:id.Proposal.origin ~seq:id.Proposal.seq
         ~semantics ~send_ts ~hdo payload))

let gen_update_info =
  QCheck.Gen.(
    gen_proposal_id >>= fun proposal_id ->
    gen_semantics >>= fun semantics ->
    gen_time >>= fun send_ts ->
    int_range (-1) 30 >>= fun hdo ->
    return { Oal.proposal_id; semantics; send_ts; hdo })

let gen_body =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun u -> Oal.Update u) gen_update_info);
        ( 1,
          map2
            (fun group group_id -> Oal.Membership { group; group_id })
            gen_set gen_group_id );
      ])

let gen_oal =
  QCheck.Gen.(
    int_bound 5 >>= fun low ->
    int_bound 6 >>= fun len ->
    list_repeat len (triple gen_body gen_set (pair bool bool))
    >>= fun raw ->
    (* consecutive ordinals from the frontier keep the image valid *)
    let w_entries =
      List.mapi
        (fun i (body, acks, (undeliverable, known_stable)) ->
          { Oal.ordinal = low + i; body; acks; undeliverable; known_stable })
        raw
    in
    option (triple (int_bound 5) gen_set gen_group_id) >>= fun latest ->
    let w_latest =
      (* the latest-membership memo records an already-purged ordinal,
         so keep it below the frontier *)
      Option.map (fun (o, g, gid) -> (min o low, g, gid)) latest
    in
    let wire =
      { Oal.w_low = low; w_next_ordinal = low + len; w_entries; w_latest }
    in
    match Oal.of_wire wire with
    | Ok oal -> return oal
    | Error e -> failwith ("generator built an invalid oal image: " ^ e))

(* Buffers built the way a member builds them: proposals stored,
   delivered in any order (with or without an ordinal) and compacted,
   over a small id space, so the delivered history has holes, stored
   delivered proposals and undated ids. *)
let gen_buffers =
  let gen_id =
    QCheck.Gen.map2
      (fun origin seq -> { Proposal.origin = pid origin; seq })
      (QCheck.Gen.int_bound 3) (QCheck.Gen.int_bound 12)
  in
  QCheck.Gen.(
    let op =
      frequency
        [
          ( 3,
            map2
              (fun id p b -> fst (Buffers.store b { p with Proposal.id = id }))
              gen_id gen_proposal );
          ( 3,
            map2
              (fun id ordinal b -> Buffers.note_delivered b id ~ordinal)
              gen_id (option (int_bound 30)) );
          (1, map (fun below b -> Buffers.compact b ~below) (int_bound 30));
          ( 1,
            map2
              (fun id expires b -> Buffers.mark_undeliverable b id ~expires)
              gen_id gen_time );
          ( 1,
            map2
              (fun origin expires b -> Buffers.block_origin b origin ~expires)
              gen_proc gen_time );
        ]
    in
    list_size (int_bound 16) op
    >|= List.fold_left (fun b f -> f b) Buffers.empty)

let gen_control : (string, string list) Control_msg.t QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          map2
            (fun semantics payload -> Control_msg.Submit { semantics; payload })
            gen_semantics gen_payload );
        (2, map (fun p -> Control_msg.Proposal_msg p) gen_proposal);
        (1, map (fun p -> Control_msg.Retransmit p) gen_proposal);
        ( 1,
          map
            (fun missing -> Control_msg.Nack { missing })
            (list_size (int_bound 6) gen_proposal_id) );
        ( 2,
          map3
            (fun d_ts d_oal d_alive ->
              Control_msg.Decision { d_ts; d_oal; d_alive })
            gen_time gen_oal gen_set );
        ( 1,
          gen_time >>= fun nd_ts ->
          gen_proc >>= fun nd_suspect ->
          gen_time >>= fun nd_since ->
          gen_oal >>= fun nd_view ->
          list_size (int_bound 4) gen_update_info >>= fun nd_dpd ->
          gen_set >>= fun nd_alive ->
          return
            (Control_msg.No_decision
               { nd_ts; nd_suspect; nd_since; nd_view; nd_dpd; nd_alive }) );
        ( 2,
          map3
            (fun j_ts (j_list, j_alive) j_epoch ->
              Control_msg.Join_msg { j_ts; j_list; j_alive; j_epoch })
            gen_time (pair gen_set gen_set) (int_bound 3) );
        ( 1,
          gen_time >>= fun r_ts ->
          gen_set >>= fun r_list ->
          gen_time >>= fun r_last_decision_ts ->
          gen_oal >>= fun r_view ->
          list_size (int_bound 4) gen_update_info >>= fun r_dpd ->
          gen_set >>= fun r_alive ->
          return
            (Control_msg.Reconfig
               { r_ts; r_list; r_last_decision_ts; r_view; r_dpd; r_alive }) );
        ( 1,
          gen_time >>= fun st_ts ->
          gen_set >>= fun st_group ->
          gen_group_id >>= fun st_group_id ->
          gen_oal >>= fun st_oal ->
          list_size (int_bound 4) gen_payload >>= fun st_app ->
          gen_buffers >>= fun st_buffers ->
          return
            (Control_msg.State_transfer
               { st_ts; st_group; st_group_id; st_oal; st_app; st_buffers }) );
      ])

let gen_cs =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          map2
            (fun seq sender_clock ->
              Clocksync.Protocol.Request { seq; sender_clock })
            (int_bound 1000) gen_time );
        ( 1,
          map3
            (fun seq echo_sender_clock replier_clock ->
              Clocksync.Protocol.Reply { seq; echo_sender_clock; replier_clock })
            (int_bound 1000) gen_time gen_time );
      ])

let gen_msg : (string, string list) Full_stack.msg QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun m -> Full_stack.Cs m) gen_cs);
        (4, map (fun m -> Full_stack.Gc m) gen_control);
      ])

let arb_frame =
  QCheck.make
    ~print:(fun (sender, msg) ->
      Fmt.str "from %a: %a" Proc_id.pp sender
        (Fmt.of_to_string (function
          | Full_stack.Cs m -> Fmt.str "cs %a" Clocksync.Protocol.pp_msg m
          | Full_stack.Gc m -> Fmt.str "gc %a" Control_msg.pp m))
        msg)
    QCheck.Gen.(pair gen_proc gen_msg)

let pc = Codec.string_payload

(* ------------------------------------------------------------------ *)
(* round trips *)

let round_trip =
  QCheck.Test.make ~count:500
    ~name:"encode/decode round-trips every message (canonical bytes)"
    arb_frame (fun (sender, msg) ->
      let bytes = Codec.encode pc ~sender msg in
      match Codec.decode pc bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %a" Codec.pp_error e
      | Ok (sender', msg') ->
        Proc_id.equal sender' sender
        && String.equal (Codec.encode pc ~sender:sender' msg') bytes)

let scratch_writer = Wire.writer ()

let encode_to_identical =
  QCheck.Test.make ~count:500
    ~name:"encode_to produces encode's exact bytes" arb_frame
    (fun (sender, msg) ->
      let reference = Codec.encode pc ~sender msg in
      (* encode_to on a shared, reused writer *)
      let written = Codec.encode_to pc ~sender msg scratch_writer in
      written = String.length reference
      && String.equal (Wire.contents scratch_writer) reference)

let encode_to_zero_alloc () =
  (* the transport's steady-state kinds must encode without touching
     the minor heap: one long-lived fixed writer, no per-frame garbage *)
  let gid = { Group_id.epoch = 1; seq = 3 } in
  let group = Proc_set.of_list [ pid 0; pid 1; pid 2; pid 3 ] in
  let oal, _ = Oal.append_membership Oal.empty ~group ~group_id:gid in
  let oal =
    fst
      (Oal.append_update oal
         {
           Oal.proposal_id = { Proposal.origin = pid 1; seq = 5 };
           semantics = Semantics.total_strong;
           send_ts = Time.of_ms 2;
           hdo = -1;
         }
         ~acks:group)
  in
  let msgs =
    [
      ( "decision",
        Full_stack.Gc
          (Control_msg.Decision
             { d_ts = Time.of_ms 5; d_oal = oal; d_alive = group }) );
      ( "proposal",
        Full_stack.Gc
          (Control_msg.Proposal_msg
             (Proposal.make ~origin:(pid 1) ~seq:6
                ~semantics:Semantics.total_strong ~send_ts:(Time.of_ms 3)
                ~hdo:0 "payload")) );
      ( "cs-request",
        Full_stack.Cs
          (Clocksync.Protocol.Request { seq = 9; sender_clock = Time.of_ms 1 })
      );
      ( "cs-reply",
        Full_stack.Cs
          (Clocksync.Protocol.Reply
             {
               seq = 9;
               echo_sender_clock = Time.of_ms 1;
               replier_clock = Time.of_ms 2;
             }) );
    ]
  in
  let buf = Bytes.create 65536 in
  let w = Wire.writer_into buf ~pos:0 in
  List.iter
    (fun (kind, msg) ->
      for _ = 1 to 100 do
        ignore (Codec.encode_to pc ~sender:(pid 1) msg w : int)
      done;
      Gc.minor ();
      let m0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Codec.encode_to pc ~sender:(pid 1) msg w : int)
      done;
      let per_op = (Gc.minor_words () -. m0) /. 10_000.0 in
      if per_op > 0.01 then
        Alcotest.failf "%s encode allocates %.3f minor words/frame" kind
          per_op)
    msgs

let round_trip_structural () =
  (* spot structural checks on hand-built messages, so a canonical-bytes
     fixed point that somehow lost data would still be caught *)
  let gid = { Group_id.epoch = 2; seq = 7 } in
  let group = Proc_set.of_list [ pid 0; pid 2; pid 3 ] in
  let join =
    Full_stack.Gc
      (Control_msg.Join_msg
         {
           j_ts = Time.of_ms 1234;
           j_list = group;
           j_alive = Proc_set.of_list [ pid 0 ];
           j_epoch = 3;
         })
  in
  (match Codec.decode pc (Codec.encode pc ~sender:(pid 2) join) with
  | Ok (s, Full_stack.Gc (Control_msg.Join_msg j)) ->
    Alcotest.(check int) "sender" 2 (Proc_id.to_int s);
    Alcotest.(check int) "epoch" 3 j.Control_msg.j_epoch;
    Alcotest.(check bool) "list" true (Proc_set.equal j.Control_msg.j_list group);
    Alcotest.(check bool) "ts" true (Time.equal j.Control_msg.j_ts (Time.of_ms 1234))
  | Ok _ -> Alcotest.fail "decoded to a different constructor"
  | Error e -> Alcotest.failf "decode failed: %a" Codec.pp_error e);
  let oal, _ = Oal.append_membership Oal.empty ~group ~group_id:gid in
  let decision =
    Full_stack.Gc
      (Control_msg.Decision { d_ts = Time.of_us 5; d_oal = oal; d_alive = group })
  in
  match Codec.decode pc (Codec.encode pc ~sender:(pid 0) decision) with
  | Ok (_, Full_stack.Gc (Control_msg.Decision d)) ->
    (match Oal.latest_membership d.Control_msg.d_oal with
    | Some (_, g, id) ->
      Alcotest.(check bool) "group survives" true (Proc_set.equal g group);
      Alcotest.(check bool) "epoch-qualified id survives" true
        (Group_id.equal id gid)
    | None -> Alcotest.fail "membership entry lost in transit")
  | Ok _ -> Alcotest.fail "decoded to a different constructor"
  | Error e -> Alcotest.failf "decode failed: %a" Codec.pp_error e

(* A state transfer after [count] in-order deliveries at n = 5, each
   compacted once it is 16 ordinals old. *)
let state_transfer_after count =
  let rec go b i =
    if i = count then b
    else
      let p =
        Proposal.make ~origin:(pid (i mod 5)) ~seq:(i / 5)
          ~semantics:Semantics.total_strong ~send_ts:(Time.of_us i)
          ~hdo:(i - 1) "payload"
      in
      let b = fst (Buffers.store b p) in
      let b = Buffers.note_delivered b p.Proposal.id ~ordinal:(Some i) in
      go (Buffers.compact b ~below:(i - 16)) (i + 1)
  in
  Full_stack.Gc
    (Control_msg.State_transfer
       {
         st_ts = Time.of_ms 1;
         st_group = Proc_set.full ~n:5;
         st_group_id = { Group_id.epoch = 0; seq = 1 };
         st_oal = Oal.empty;
         st_app = [];
         st_buffers = go Buffers.empty 0;
       })

(* The frame carries the delivered history as ranges, so 10k deliveries
   cost what 100 do. The only growth is the varint width of the larger
   seqs, ordinals and timestamps: at most two bytes for each of the five
   origins' runs, the ordinal run and the 17 stored proposals' fields. *)
let state_transfer_bounded () =
  let bytes count =
    String.length (Codec.encode pc ~sender:(pid 0) (state_transfer_after count))
  in
  let small = bytes 100 and large = bytes 10_000 in
  let varint_growth = 2 * (6 + (17 * 4)) in
  if large > small + varint_growth then
    Alcotest.failf
      "state-transfer frame grew with the run: %d B after 100, %d B after 10k"
      small large

(* ------------------------------------------------------------------ *)
(* rejection *)

let sample_frame () =
  let msg =
    Full_stack.Gc
      (Control_msg.Submit
         { semantics = Semantics.total_strong; payload = "payload" })
  in
  Codec.encode pc ~sender:(pid 1) msg

let check_error name expected = function
  | Error e when e = expected -> ()
  | Error e ->
    Alcotest.failf "%s: expected %a, got %a" name Codec.pp_error expected
      Codec.pp_error e
  | Ok _ -> Alcotest.failf "%s: decode accepted a bad frame" name

let decode_bytes_window () =
  let frame = sample_frame () in
  let len = String.length frame in
  let buf = Bytes.make (len + 16) '\xFF' in
  Bytes.blit_string frame 0 buf 7 len;
  match Codec.decode_bytes pc buf ~pos:7 ~len with
  | Ok (sender, msg) ->
    Alcotest.(check int) "sender" 1 (Proc_id.to_int sender);
    Alcotest.(check string) "canonical bytes" frame
      (Codec.encode pc ~sender msg)
  | Error e -> Alcotest.failf "window decode failed: %a" Codec.pp_error e

let rejects_truncated () =
  let frame = sample_frame () in
  (* every proper prefix must be rejected, and prefixes that cut the
     header must say Truncated *)
  for cut = 0 to String.length frame - 1 do
    match Codec.decode pc (String.sub frame 0 cut) with
    | Ok _ -> Alcotest.failf "accepted %d-byte prefix" cut
    | Error (Codec.Truncated | Codec.Length_mismatch _) -> ()
    | Error e ->
      Alcotest.failf "prefix %d: unexpected error %a" cut Codec.pp_error e
  done;
  check_error "empty" Codec.Truncated (Codec.decode pc "");
  check_error "header cut" Codec.Truncated
    (Codec.decode pc (String.sub frame 0 2))

let rejects_over_length () =
  let frame = sample_frame () in
  let declared = String.length frame in
  (match Codec.decode pc (frame ^ "x") with
  | Error (Codec.Length_mismatch { actual; _ }) ->
    Alcotest.(check bool) "actual exceeds declared" true (actual > 0)
  | Error e -> Alcotest.failf "unexpected error %a" Codec.pp_error e
  | Ok _ -> Alcotest.failf "accepted over-length frame (%d+1 bytes)" declared);
  match Codec.decode pc (frame ^ String.make 40 '\x00') with
  | Error (Codec.Length_mismatch _) -> ()
  | Error e -> Alcotest.failf "unexpected error %a" Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted padded frame"

let rejects_wrong_version () =
  let frame = Bytes.of_string (sample_frame ()) in
  Bytes.set frame 2 (Char.chr 99);
  check_error "version 99" (Codec.Bad_version 99)
    (Codec.decode pc (Bytes.to_string frame));
  (* version 1 carried the delivered history id by id *)
  Bytes.set frame 2 (Char.chr 1);
  check_error "version 1" (Codec.Bad_version 1)
    (Codec.decode pc (Bytes.to_string frame))

(* A delivered range with lo > hi names no seq: the frame is refused,
   not read as an empty or an inverted range. *)
let rejects_empty_range () =
  let ints xs =
    let w = Wire.writer () in
    List.iter (Wire.int w) xs;
    Wire.contents w
  in
  let buffers =
    Buffers.note_delivered Buffers.empty
      { Proposal.origin = pid 1; seq = 1000 }
      ~ordinal:None
  in
  let frame =
    Codec.encode pc ~sender:(pid 0)
      (Full_stack.Gc
         (Control_msg.State_transfer
            {
              st_ts = Time.of_ms 1;
              st_group = Proc_set.full ~n:3;
              st_group_id = { Group_id.epoch = 0; seq = 1 };
              st_oal = Oal.empty;
              st_app = [];
              st_buffers = buffers;
            }))
  in
  let range = ints [ 1000; 1000 ] and inverted = ints [ 1000; 999 ] in
  let at =
    let n = String.length range in
    let rec find i =
      if i + n > String.length frame then Alcotest.fail "range not in frame"
      else if String.sub frame i n = range then i
      else find (i + 1)
    in
    find 0
  in
  let bad =
    String.sub frame 0 at ^ inverted
    ^ String.sub frame (at + String.length range)
        (String.length frame - at - String.length range)
  in
  check_error "inverted range" (Codec.Malformed "empty range")
    (Codec.decode pc bad)

let rejects_bad_magic () =
  let frame = Bytes.of_string (sample_frame ()) in
  Bytes.set frame 0 'X';
  check_error "magic" Codec.Bad_magic (Codec.decode pc (Bytes.to_string frame))

(* Control tag 9 is retired and unassigned: a frame carrying it, with a
   correct header and length, is refused with a typed error. *)
let rejects_retired_control_tag () =
  let frame body =
    let w = Wire.writer () in
    Wire.byte w (Char.code 'T');
    Wire.byte w (Char.code 'W');
    Wire.byte w Codec.version;
    Wire.int w 1;
    let mark = Wire.begin_frame w in
    Wire.byte w 1 (* group communication message *);
    Wire.byte w 9;
    body w;
    Wire.end_frame w mark;
    Wire.contents w
  in
  let expected = Codec.Malformed "bad control tag 9" in
  check_error "bare tag" expected (Codec.decode pc (frame ignore));
  check_error "tag with a body" expected
    (Codec.decode pc
       (frame (fun w ->
            Wire.int w 120_000;
            Wire.int w 0;
            Wire.int w 0)))

let decode_total =
  QCheck.Test.make ~count:1000 ~name:"decode never raises on junk"
    QCheck.(string_of_size (QCheck.Gen.int_bound 200))
    (fun junk ->
      match Codec.decode pc junk with Ok _ | Error _ -> true)

let mutation_total =
  (* flip one byte of a valid frame: decode must return, and any
     accepted result must still canonically re-encode *)
  QCheck.Test.make ~count:500 ~name:"decode total under single-byte mutation"
    QCheck.(pair arb_frame (pair small_nat (int_bound 255)))
    (fun ((sender, msg), (pos, byte)) ->
      let frame = Bytes.of_string (Codec.encode pc ~sender msg) in
      let pos = pos mod Bytes.length frame in
      Bytes.set frame pos (Char.chr byte);
      match Codec.decode pc (Bytes.to_string frame) with
      | Error _ -> true
      | Ok (sender', msg') ->
        String.length (Codec.encode pc ~sender:sender' msg') > 0)

(* ------------------------------------------------------------------ *)
(* stable storage *)

let store_round_trip () =
  let record =
    {
      Member.last_group_id = { Group_id.epoch = 4; seq = 17 };
      last_group = Proc_set.of_list [ pid 0; pid 3; pid 4 ];
    }
  in
  (match Live_store.persistent_of_wire (Live_store.wire_of_persistent record) with
  | Some r ->
    Alcotest.(check bool) "id" true
      (Group_id.equal r.Member.last_group_id record.Member.last_group_id);
    Alcotest.(check bool) "group" true
      (Proc_set.equal r.Member.last_group record.Member.last_group)
  | None -> Alcotest.fail "record codec rejected its own output");
  Alcotest.(check bool) "corrupt record restores as None" true
    (Live_store.persistent_of_wire "garbage" = None);
  Alcotest.(check bool) "truncated record restores as None" true
    (Live_store.persistent_of_wire
       (String.sub (Live_store.wire_of_persistent record) 0 6)
    = None)

(* ------------------------------------------------------------------ *)
(* checksum and corruption totality: a corrupted record must never
   restore as valid state — that would silently violate the epoch
   ratchet the recovery protocol depends on *)

let crc32_vector () =
  (* the standard check vector for CRC-32/ISO-HDLC *)
  Alcotest.(check int32) "CRC32(\"123456789\")" 0xCBF43926l
    (Crc32.string "123456789");
  (* incremental digest over split slices equals the one-shot CRC *)
  let s = "timewheel stable storage record" in
  let k = String.length s / 3 in
  let c = Crc32.digest s ~pos:0 ~len:k in
  let c = Crc32.digest ~crc:c s ~pos:k ~len:(String.length s - k) in
  Alcotest.(check int32) "incremental = one-shot" (Crc32.string s) c

let sample_record =
  {
    Member.last_group_id = { Group_id.epoch = 4; seq = 17 };
    last_group = Proc_set.of_list [ pid 0; pid 1; pid 3; pid 4 ];
  }

let store_rejects_corruption () =
  let wire = Live_store.wire_of_persistent sample_record in
  let len = String.length wire in
  Alcotest.(check bool) "empty" true (Live_store.persistent_of_wire "" = None);
  for k = 0 to len - 1 do
    if Live_store.persistent_of_wire (String.sub wire 0 k) <> None then
      Alcotest.failf "truncation to %d of %d bytes accepted" k len
  done;
  Alcotest.(check bool) "trailing NUL" true
    (Live_store.persistent_of_wire (wire ^ "\x00") = None);
  Alcotest.(check bool) "trailing garbage" true
    (Live_store.persistent_of_wire (wire ^ "tail") = None);
  (* every single-bit flip at every position must be caught — that is
     exactly the CRC's job, flips inside the CRC bytes included *)
  for i = 0 to len - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string wire in
      Bytes.set b i (Char.chr (Char.code wire.[i] lxor (1 lsl bit)));
      if Live_store.persistent_of_wire (Bytes.unsafe_to_string b) <> None then
        Alcotest.failf "bit %d of byte %d flipped and still accepted" bit i
    done
  done

let store_codec_round_trip =
  QCheck.Test.make ~count:300 ~name:"store record codec round-trips"
    (QCheck.make QCheck.Gen.(map2 (fun gid g -> (gid, g)) gen_group_id gen_set))
    (fun (gid, group) ->
      let record = { Member.last_group_id = gid; last_group = group } in
      match
        Live_store.persistent_of_wire (Live_store.wire_of_persistent record)
      with
      | Some r ->
        Group_id.equal r.Member.last_group_id gid
        && Proc_set.equal r.Member.last_group group
      | None -> false)

(* ------------------------------------------------------------------ *)
(* store conformance: the same cases against both Storage.Store
   backends *)

module Store = Storage.Store

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_store_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "timewheel-store-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let record_v1 =
  { Member.last_group_id = { Group_id.epoch = 1; seq = 3 };
    last_group = Proc_set.of_list [ pid 0; pid 1; pid 2 ] }

let record_v2 =
  { Member.last_group_id = { Group_id.epoch = 1; seq = 4 };
    last_group = Proc_set.of_list [ pid 0; pid 1 ] }

(* [self] restores a record with [expected]'s group id, or none *)
let check_gid msg store self (expected : Member.persistent option) =
  let gid = Option.map (fun r -> r.Member.last_group_id) in
  Alcotest.(check bool) msg true (gid (Store.restore store ~self) = gid expected)

let count store name = Stats.count (Store.stats store) ("live:store:" ^ name)

let empty_store store =
  check_gid "fresh store is empty" store (pid 1) None;
  Alcotest.(check int) "restore-missing counted" 1 (count store "restore-missing");
  Alcotest.(check int) "nothing restored" 0 (count store "restore")

let round_trip_isolation store =
  Store.persist store ~self:(pid 1) record_v1;
  check_gid "persisted record restores" store (pid 1) (Some record_v1);
  check_gid "other process still empty" store (pid 2) None;
  Store.persist store ~self:(pid 2) record_v2;
  check_gid "second process's record" store (pid 2) (Some record_v2);
  check_gid "first process unaffected" store (pid 1) (Some record_v1);
  Store.persist store ~self:(pid 1) record_v2;
  check_gid "overwrite replaces" store (pid 1) (Some record_v2);
  (match Store.restore store ~self:(pid 2) with
  | Some r ->
    Alcotest.(check bool) "membership round-trips" true
      (Proc_set.equal r.Member.last_group record_v2.Member.last_group)
  | None -> Alcotest.fail "record lost");
  Alcotest.(check int) "every persist counted" 3 (count store "persist")

let torn_write_keeps_previous store =
  Store.persist store ~self:(pid 0) record_v1;
  Store.set_fault store ~proc:(pid 0) (Some Store.Torn_write);
  Store.persist store ~self:(pid 0) record_v2;
  check_gid "the running process reads the old record" store (pid 0)
    (Some record_v1);
  Store.note_crash store ~self:(pid 0);
  check_gid "and so does its next incarnation" store (pid 0) (Some record_v1);
  Alcotest.(check int) "torn fault counted" 1 (count store "fault:torn-write");
  Alcotest.(check int) "failure counted" 1 (count store "persist-failed")

let lost_flush_revert store =
  Store.persist store ~self:(pid 0) record_v1;
  Store.set_fault store ~proc:(pid 0) (Some Store.Lost_flush);
  Store.persist store ~self:(pid 0) record_v2;
  (* visible to this incarnation — the kernel had the pages — ... *)
  check_gid "unflushed write visible" store (pid 0) (Some record_v2);
  (* ...but a machine crash loses it: revert to the record known flushed *)
  Store.note_crash store ~self:(pid 0);
  check_gid "machine crash reverts to the durable record" store (pid 0)
    (Some record_v1);
  (* with no durable baseline at all, the crash loses everything *)
  Store.set_fault store ~proc:(pid 3) (Some Store.Lost_flush);
  Store.persist store ~self:(pid 3) record_v2;
  check_gid "visible before the crash" store (pid 3) (Some record_v2);
  Store.note_crash store ~self:(pid 3);
  check_gid "nothing durable to revert to" store (pid 3) None;
  Alcotest.(check int) "lost flushes counted" 2 (count store "fault:lost-flush")

let io_error_degrades store =
  Store.persist store ~self:(pid 0) record_v1;
  Store.set_fault store ~proc:(pid 0) (Some Store.Io_error);
  (* bounded retries, then degrade — never an exception *)
  Store.persist store ~self:(pid 0) record_v2;
  Alcotest.(check int) "retries" (Store.persist_attempts - 1) (count store "retry");
  Alcotest.(check int) "failure counted" 1 (count store "persist-failed");
  Alcotest.(check int) "io fault counted" 1 (count store "fault:io-error");
  check_gid "old record intact" store (pid 0) (Some record_v1);
  (* the fault clears and the store recovers *)
  Store.set_fault store ~proc:(pid 0) None;
  Store.persist store ~self:(pid 0) record_v2;
  check_gid "recovered after the fault window" store (pid 0) (Some record_v2)

let store_wide_fault_override store =
  Store.set_fault store (Some Store.Torn_write);
  Store.set_fault store ~proc:(pid 1) None;
  Store.persist store ~self:(pid 0) record_v1;
  Store.persist store ~self:(pid 1) record_v1;
  check_gid "store-wide fault tears" store (pid 0) None;
  check_gid "per-process override wins" store (pid 1) (Some record_v1);
  (* a store-wide setting clears every override *)
  Store.set_fault store (Some Store.Torn_write);
  Store.persist store ~self:(pid 1) record_v2;
  check_gid "override cleared by the store-wide fault" store (pid 1)
    (Some record_v1);
  Store.set_fault store None;
  Store.persist store ~self:(pid 0) record_v2;
  check_gid "store-wide clear" store (pid 0) (Some record_v2)

let conformance with_store =
  List.map
    (fun (name, case) ->
      Alcotest.test_case name `Quick (fun () -> with_store case))
    [
      ("empty store restores None", empty_store);
      ("round trip and per-process isolation", round_trip_isolation);
      ("torn write keeps the previous record", torn_write_keeps_previous);
      ("lost flush: note_crash reverts", lost_flush_revert);
      ("io-error: bounded retry then degrade", io_error_degrades);
      ("store-wide fault, per-process override", store_wide_fault_override);
    ]

let with_memory_store f = f (Store.in_memory ())

let with_disk_store f =
  with_store_dir "conformance" @@ fun dir -> f (Live_store.on_disk ~dir ())

(* ------------------------------------------------------------------ *)
(* what only the on-disk backend has: reopen, tmp debris, totality *)

let no_tmp_litter dir =
  Array.for_all
    (fun f -> not (Filename.check_suffix f ".tmp"))
    (Sys.readdir dir)

let store_disk () =
  with_store_dir "reopen" @@ fun dir ->
  let store = Live_store.on_disk ~dir () in
  Store.persist store ~self:(pid 0) record_v1;
  (* a second handle on the same directory models a process restart *)
  check_gid "record survives reopen" (Live_store.on_disk ~dir ()) (pid 0)
    (Some record_v1);
  (* failed attempts leak no tmp file, and a restart still sees the
     previous record *)
  Store.set_fault store (Some Store.Io_error);
  Store.persist store ~self:(pid 0) record_v2;
  Alcotest.(check bool) "no .tmp litter" true (no_tmp_litter dir);
  check_gid "old record survives reopen" (Live_store.on_disk ~dir ()) (pid 0)
    (Some record_v1)

let store_torn_write_tolerated () =
  with_store_dir "torn" @@ fun dir ->
  let store = Live_store.on_disk ~dir () in
  Store.persist store ~self:(pid 0) record_v1;
  Store.set_fault store ~proc:(pid 0) (Some Store.Torn_write);
  Store.persist store ~self:(pid 0) record_v2;
  (* the crashed writer leaves its half-written tmp behind *)
  Alcotest.(check bool) "torn .tmp left behind" true (not (no_tmp_litter dir));
  (* a restart (fresh handle) discards the debris and restores the
     last durable record *)
  let store2 = Live_store.on_disk ~dir () in
  check_gid "durable record survives the tear" store2 (pid 0) (Some record_v1);
  Alcotest.(check int) "tmp discarded on restore" 1
    (count store2 "tmp-discarded");
  Alcotest.(check bool) "debris gone" true (no_tmp_litter dir)

let store_restore_total () =
  with_store_dir "total" @@ fun dir ->
  let store = Live_store.on_disk ~dir () in
  Store.persist store ~self:(pid 1) record_v1;
  let path_of self =
    match Store.record_path store ~self with
    | Some p -> p
    | None -> Alcotest.fail "disk store must expose a record path"
  in
  (* a directory squatting on the record path *)
  Unix.mkdir (path_of (pid 0)) 0o755;
  check_gid "directory at path restores as None" store (pid 0) None;
  (* an empty file *)
  close_out (open_out_bin (path_of (pid 2)));
  check_gid "empty file restores as None" store (pid 2) None;
  (* trailing garbage appended to a valid record *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (path_of (pid 1)) in
  output_string oc "xx";
  close_out oc;
  check_gid "trailing garbage restores as None" store (pid 1) None;
  Alcotest.(check int) "every corruption counted" 3
    (count store "restore-corrupt")

(* ------------------------------------------------------------------ *)
(* the loopback impairment shim and the poll-loop timeout clamp *)

(* a toy 2-int codec so the shim tests need none of the protocol *)
let toy_encode ~sender (m : int) w =
  Wire.reset w;
  Wire.int w (Proc_id.to_int sender);
  Wire.int w m;
  Wire.pos w

let toy_decode buf ~pos ~len =
  let r = Wire.reader_bytes ~pos ~len buf in
  let src = Wire.r_int r in
  let m = Wire.r_int r in
  Ok (Proc_id.of_int src, m)

let shim_base_port = 48860

let mk_toy_transport ?(stats = Stats.create ()) ~port self =
  Transport.create ~encode_to:toy_encode ~decode:toy_decode ~self ~n:2
    ~port_of:(fun p -> port + Proc_id.to_int p)
    ~stats ()

(* send + flush: the batched transport hands frames to the kernel at
   flush points (the node driver's end-of-pass), which a raw
   transport driven directly must invoke itself *)
let toy_send t ~dst m =
  Transport.send t ~dst m;
  Transport.flush t

(* loopback is fast but still asynchronous: poll until a frame lands *)
let toy_recv t =
  let got = ref [] in
  let rec loop tries =
    let k = Transport.drain t ~handler:(fun ~src:_ m -> got := m :: !got) in
    if k = 0 && tries > 0 then begin
      Unix.sleepf 0.002;
      loop (tries - 1)
    end
  in
  loop 250;
  List.rev !got

let toy_recv_nothing t =
  Unix.sleepf 0.02;
  Transport.drain t ~handler:(fun ~src:_ _ -> ()) = 0

let test_impair_shim () =
  let stats0 = Stats.create () in
  let t0 = mk_toy_transport ~stats:stats0 ~port:shim_base_port (pid 0) in
  let t1 = mk_toy_transport ~port:shim_base_port (pid 1) in
  Fun.protect
    ~finally:(fun () ->
      Transport.close t0;
      Transport.close t1)
    (fun () ->
      let now = ref (Time.of_ms 1000) in
      let clock () = !now in
      (* no rule: frames cross directly *)
      toy_send t0 ~dst:(pid 1) 41;
      Alcotest.(check (list int)) "direct" [ 41 ] (toy_recv t1);
      (* a 50ms delay rule holds the frame until pumped past due *)
      Transport.impair t0 ~dst:(pid 1) ~delay:(Time.of_ms 50) ~now:clock ();
      Alcotest.(check int) "one impaired peer" 1 (Transport.impaired t0);
      toy_send t0 ~dst:(pid 1) 42;
      Alcotest.(check bool) "held, not on the wire" true (toy_recv_nothing t1);
      Alcotest.(check bool) "release scheduled at send+delay" true
        (Transport.next_release t0 = Some (Time.add !now (Time.of_ms 50)));
      Alcotest.(check int) "not due yet" 0 (Transport.pump t0 ~now:!now);
      now := Time.add !now (Time.of_ms 50);
      Alcotest.(check int) "released when due" 1 (Transport.pump t0 ~now:!now);
      Alcotest.(check (list int)) "frame arrives after release" [ 42 ]
        (toy_recv t1);
      Alcotest.(check bool) "nothing left to release" true
        (Transport.next_release t0 = None);
      (* two held frames to one peer with equal due keep send order *)
      toy_send t0 ~dst:(pid 1) 43;
      toy_send t0 ~dst:(pid 1) 44;
      now := Time.add !now (Time.of_ms 50);
      Alcotest.(check int) "both released" 2 (Transport.pump t0 ~now:!now);
      Alcotest.(check (list int)) "send order preserved" [ 43; 44 ]
        (toy_recv t1);
      (* drop = 1.0 swallows deterministically *)
      Transport.impair t0 ~dst:(pid 1) ~drop:1.0 ~now:clock ();
      toy_send t0 ~dst:(pid 1) 45;
      Alcotest.(check bool) "dropped" true (toy_recv_nothing t1);
      Alcotest.(check int) "drop counted" 1
        (Stats.count stats0 "live:impair:drop");
      (* clearing the rule restores the direct path *)
      Transport.clear_impair t0 ~dst:(pid 1);
      Alcotest.(check int) "no impaired peers" 0 (Transport.impaired t0);
      toy_send t0 ~dst:(pid 1) 46;
      Alcotest.(check (list int)) "direct again" [ 46 ] (toy_recv t1);
      (* clear_impairments discards what is still held *)
      Transport.impair t0 ~dst:(pid 1) ~delay:(Time.of_ms 50) ~now:clock ();
      toy_send t0 ~dst:(pid 1) 47;
      Transport.clear_impairments t0;
      now := Time.add !now (Time.of_sec 1);
      Alcotest.(check int) "held frame discarded" 0 (Transport.pump t0 ~now:!now);
      Alcotest.(check bool) "nothing arrives" true (toy_recv_nothing t1))

let test_impair_validation () =
  let t0 = mk_toy_transport ~port:(shim_base_port + 10) (pid 0) in
  Fun.protect
    ~finally:(fun () -> Transport.close t0)
    (fun () ->
      let clock () = Time.zero in
      let rejects name f =
        Alcotest.(check bool) name true
          (match f () with
          | () -> false
          | exception Invalid_argument _ -> true)
      in
      rejects "negative delay" (fun () ->
          Transport.impair t0 ~dst:(pid 1) ~delay:(Time.of_us (-1)) ~now:clock
            ());
      rejects "negative jitter" (fun () ->
          Transport.impair t0 ~dst:(pid 1) ~jitter:(Time.of_us (-1)) ~now:clock
            ());
      rejects "drop out of range" (fun () ->
          Transport.impair t0 ~dst:(pid 1) ~drop:1.5 ~now:clock ());
      Alcotest.(check int) "no rule installed by rejects" 0
        (Transport.impaired t0))

(* The busy-spin clamp (see Cluster.select_timeout): an overdue
   deadline only earns a zero select timeout when the poll pass before
   it actually did work; a barren pass must sleep a floor, because
   nothing can retire that deadline until real time advances. *)
let test_select_timeout () =
  let now = Time.of_ms 500 in
  let feq name a b = Alcotest.(check (float 1e-9)) name a b in
  feq "future deadline sleeps until it" 0.25
    (Cluster.select_timeout ~progressed:false ~now
       ~next:(Time.add now (Time.of_ms 250)));
  feq "overdue + progress re-polls immediately" 0.0
    (Cluster.select_timeout ~progressed:true ~now ~next:now);
  Alcotest.(check bool) "due-now + no progress sleeps a floor" true
    (Cluster.select_timeout ~progressed:false ~now ~next:now > 0.0);
  Alcotest.(check bool) "overdue + no progress sleeps a floor" true
    (Cluster.select_timeout ~progressed:false ~now
       ~next:(Time.sub now (Time.of_ms 10))
    > 0.0);
  (* the floor never overshoots a genuinely near deadline *)
  feq "near-future deadline unaffected" 0.0005
    (Cluster.select_timeout ~progressed:false ~now
       ~next:(Time.add now (Time.of_us 500)))

(* the edges of the impairment model: total loss, jitter-only delay,
   and clearing a rule without discarding what it already holds *)
let test_impair_edges () =
  let stats0 = Stats.create () in
  let t0 = mk_toy_transport ~stats:stats0 ~port:(shim_base_port + 20) (pid 0) in
  let t1 = mk_toy_transport ~port:(shim_base_port + 20) (pid 1) in
  Fun.protect
    ~finally:(fun () ->
      Transport.close t0;
      Transport.close t1)
    (fun () ->
      let now = ref (Time.of_ms 1000) in
      let clock () = !now in
      (* drop = 1.0: every frame is swallowed at send time; none is
         held, so there is never a pending release *)
      Transport.impair t0 ~dst:(pid 1) ~drop:1.0 ~now:clock ();
      for m = 1 to 5 do
        toy_send t0 ~dst:(pid 1) m
      done;
      Alcotest.(check bool) "no release pending under total loss" true
        (Transport.next_release t0 = None);
      Alcotest.(check bool) "nothing crosses" true (toy_recv_nothing t1);
      Alcotest.(check int) "all five drops counted" 5
        (Stats.count stats0 "live:impair:drop");
      Transport.clear_impair t0 ~dst:(pid 1);
      (* delay = 0 with jitter only: frames are held for at most the
         jitter bound, and a pump past that bound releases every one *)
      Transport.impair t0 ~dst:(pid 1) ~delay:Time.zero ~jitter:(Time.of_ms 5)
        ~now:clock ();
      let sent = [ 10; 11; 12; 13; 14; 15 ] in
      List.iter (fun m -> toy_send t0 ~dst:(pid 1) m) sent;
      (match Transport.next_release t0 with
      | None -> Alcotest.fail "jitter-only frames must be held"
      | Some due ->
        Alcotest.(check bool) "due within the jitter bound" true
          (Time.compare due !now >= 0
          && Time.compare due (Time.add !now (Time.of_ms 5)) <= 0));
      now := Time.add !now (Time.of_ms 5);
      Alcotest.(check int) "pump past the bound releases all" 6
        (Transport.pump t0 ~now:!now);
      Alcotest.(check int) "releases counted" 6
        (Stats.count stats0 "live:impair:released");
      Alcotest.(check (list int)) "every frame arrives exactly once" sent
        (List.sort compare (toy_recv t1));
      (* clear_impair mid-flight: the rule goes, the held frames stay
         and keep their due times (clear_impairments, tested above,
         is the discarding variant) *)
      Transport.impair t0 ~dst:(pid 1) ~delay:(Time.of_ms 40) ~now:clock ();
      toy_send t0 ~dst:(pid 1) 20;
      toy_send t0 ~dst:(pid 1) 21;
      Transport.clear_impair t0 ~dst:(pid 1);
      Alcotest.(check int) "rule gone" 0 (Transport.impaired t0);
      Alcotest.(check bool) "held frames keep their due times" true
        (Transport.next_release t0 = Some (Time.add !now (Time.of_ms 40)));
      (* new sends cross directly while the old frames wait *)
      toy_send t0 ~dst:(pid 1) 22;
      Alcotest.(check (list int)) "direct send overtakes held frames" [ 22 ]
        (toy_recv t1);
      Alcotest.(check int) "not due yet" 0 (Transport.pump t0 ~now:!now);
      now := Time.add !now (Time.of_ms 40);
      Alcotest.(check int) "due frames release after the clear" 2
        (Transport.pump t0 ~now:!now);
      Alcotest.(check (list int)) "held frames finally arrive" [ 20; 21 ]
        (toy_recv t1))

(* the hold queue is bounded: frames past [held_cap] are dropped and
   counted, never queued *)
let test_hold_queue_cap () =
  let stats0 = Stats.create () in
  let t0 = mk_toy_transport ~stats:stats0 ~port:(shim_base_port + 30) (pid 0) in
  Fun.protect
    ~finally:(fun () -> Transport.close t0)
    (fun () ->
      let now = ref (Time.of_ms 1000) in
      let delay = Time.of_sec 3600 in
      Transport.impair t0 ~dst:(pid 1) ~delay ~now:(fun () -> !now) ();
      let excess = 25 in
      for m = 1 to Transport.held_cap + excess do
        Transport.send t0 ~dst:(pid 1) m
      done;
      Alcotest.(check int) "held count stops at the cap" Transport.held_cap
        (Transport.held t0);
      Alcotest.(check int) "every overflow counted" excess
        (Stats.count stats0 "live:impair:overflow");
      Alcotest.(check int) "overflowed frames are not sent" Transport.held_cap
        (Stats.count stats0 "live:sent");
      now := Time.add !now delay;
      Alcotest.(check int) "the held frames release when due"
        Transport.held_cap (Transport.pump t0 ~now:!now);
      Alcotest.(check int) "nothing held after the release" 0
        (Transport.held t0);
      Transport.send t0 ~dst:(pid 1) 0;
      Transport.clear_impairments t0;
      Alcotest.(check int) "clearing drops and counts what is held" 1
        (Stats.count stats0 "live:impair:drop");
      Alcotest.(check int) "nothing held after the clear" 0 (Transport.held t0))

(* ------------------------------------------------------------------ *)
(* batched data plane: the mmsg path and the per-datagram fallback
   must put byte-identical frames on the wire and count identically *)

let raw_base_port = 48890

(* a raw UDP socket standing in for the peer: captures datagram bytes
   without any transport machinery in the way *)
let raw_receiver port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  fd

let raw_recv_n fd ~expect =
  let buf = Bytes.create 65536 in
  let got = ref [] in
  let count = ref 0 in
  let tries = ref 250 in
  while !count < expect && !tries > 0 do
    match Unix.recvfrom fd buf 0 65536 [] with
    | len, _ ->
      got := Bytes.sub_string buf 0 len :: !got;
      incr count
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
      decr tries;
      Unix.sleepf 0.002
  done;
  List.rev !got

(* drive one transport through sends, flushes and an impaired hold so
   every send-side path contributes frames *)
let drive_sends t ~dst =
  let now = ref (Time.of_ms 100) in
  Transport.impair t ~dst ~delay:(Time.of_ms 5) ~now:(fun () -> !now) ();
  Transport.send t ~dst 1001;
  (* held *)
  Transport.clear_impair t ~dst;
  for i = 1 to 10 do
    Transport.send t ~dst i
  done;
  Transport.flush t;
  for i = 11 to 13 do
    Transport.send t ~dst (i * 7)
  done;
  Transport.flush t;
  now := Time.add !now (Time.of_ms 5);
  ignore (Transport.pump t ~now:!now)

let send_counters stats =
  List.filter
    (fun (name, _) ->
      (* everything except the syscall counters, which legitimately
         differ between the two primitives *)
      String.length name >= 5
      && String.sub name 0 5 = "live:"
      && not
           (String.length name >= 12 && String.sub name 0 12 = "live:syscall"))
    (Stats.counters stats)

let test_batched_fallback_identical () =
  if not Runtime.Mmsg.supported then ()
  else begin
    let run ~batching ~port =
      let stats = Stats.create () in
      let t =
        Transport.create ~encode_to:toy_encode ~decode:toy_decode ~batching
          ~self:(pid 0) ~n:2
          ~port_of:(fun p -> port + Proc_id.to_int p)
          ~stats ()
      in
      let peer = raw_receiver (port + 1) in
      Fun.protect
        ~finally:(fun () ->
          Transport.close t;
          Unix.close peer)
        (fun () ->
          Alcotest.(check bool) "batching mode as requested" batching
            (Transport.batched t);
          drive_sends t ~dst:(pid 1);
          (raw_recv_n peer ~expect:14, send_counters stats))
    in
    let frames_batched, counters_batched =
      run ~batching:true ~port:raw_base_port
    in
    let frames_fallback, counters_fallback =
      run ~batching:false ~port:(raw_base_port + 8)
    in
    Alcotest.(check int) "frame count" 14 (List.length frames_batched);
    Alcotest.(check (list string)) "frame bytes identical" frames_batched
      frames_fallback;
    Alcotest.(check (list (pair string int))) "counters identical"
      counters_batched counters_fallback
  end

let test_batch_flush_on_pressure () =
  if not Runtime.Mmsg.supported then ()
  else begin
    let port = raw_base_port + 16 in
    let stats = Stats.create () in
    let t =
      Transport.create ~encode_to:toy_encode ~decode:toy_decode ~batching:true
        ~self:(pid 0) ~n:2
        ~port_of:(fun p -> port + Proc_id.to_int p)
        ~stats ()
    in
    let peer = raw_receiver (port + 1) in
    Fun.protect
      ~finally:(fun () ->
        Transport.close t;
        Unix.close peer)
      (fun () ->
        (* one slot past capacity: the 65th commit must force a flush
           of the first 64 without any explicit flush call *)
        for i = 1 to 65 do
          Transport.send t ~dst:(pid 1) i
        done;
        let burst = raw_recv_n peer ~expect:64 in
        Alcotest.(check int) "batch flushed itself at capacity" 64
          (List.length burst);
        Alcotest.(check int) "all 65 counted as sent at commit" 65
          (Stats.count stats "live:sent");
        Transport.flush t;
        Alcotest.(check int) "explicit flush moves the straggler" 1
          (List.length (raw_recv_n peer ~expect:1)))
  end

(* A broadcast is encoded once and every peer reads the same bytes, on
   both send paths, also when it meets a batch with one slot left *)
let test_broadcast_identical_bytes () =
  if not Runtime.Mmsg.supported then ()
  else begin
    let run ~batching ~port =
      let stats = Stats.create () in
      let encodes = ref 0 in
      let encode_to ~sender m w =
        incr encodes;
        toy_encode ~sender m w
      in
      let t =
        Transport.create ~encode_to ~decode:toy_decode ~batching
          ~self:(pid 0) ~n:3
          ~port_of:(fun p -> port + Proc_id.to_int p)
          ~stats ()
      in
      let p1 = raw_receiver (port + 1) in
      let p2 = raw_receiver (port + 2) in
      Fun.protect
        ~finally:(fun () ->
          Transport.close t;
          Unix.close p1;
          Unix.close p2)
        (fun () ->
          for i = 1 to Runtime.Mmsg.slots - 1 do
            Transport.send t ~dst:(pid 1) i
          done;
          for i = 1 to 5 do
            Transport.broadcast t (1000 + i)
          done;
          Transport.flush t;
          let f1 = raw_recv_n p1 ~expect:(Runtime.Mmsg.slots + 4) in
          let f2 = raw_recv_n p2 ~expect:5 in
          ( List.filteri (fun i _ -> i >= Runtime.Mmsg.slots - 1) f1,
            f2,
            (Stats.count stats "live:sent", !encodes) ))
    in
    let bcast_batched, p2_batched, sent_batched =
      run ~batching:true ~port:(raw_base_port + 40)
    in
    let bcast_fallback, p2_fallback, sent_fallback =
      run ~batching:false ~port:(raw_base_port + 44)
    in
    Alcotest.(check int) "peer 1 got every broadcast" 5
      (List.length bcast_batched);
    Alcotest.(check (list string)) "peers read the same bytes (batched)"
      bcast_batched p2_batched;
    Alcotest.(check (list string)) "peers read the same bytes (fallback)"
      bcast_fallback p2_fallback;
    Alcotest.(check (list string)) "both paths send the same bytes"
      bcast_batched bcast_fallback;
    Alcotest.(check (list (pair int int))) "one copy sent per peer, one encode"
      [ (Runtime.Mmsg.slots + 9, Runtime.Mmsg.slots + 4);
        (Runtime.Mmsg.slots + 9, Runtime.Mmsg.slots + 4) ]
      [ sent_batched; sent_fallback ];
    List.iteri
      (fun i frame ->
        let b = Bytes.of_string frame in
        match toy_decode b ~pos:0 ~len:(Bytes.length b) with
        | Ok (_, m) -> Alcotest.(check int) "broadcast order" (1001 + i) m
        | Error _ -> Alcotest.fail "broadcast frame does not decode")
      bcast_batched
  end

(* TW_MMSG=0 must force the portable path when no explicit batching
   override is given *)
let test_env_disables_batching () =
  if not Runtime.Mmsg.supported then ()
  else begin
    let mk port =
      Transport.create ~encode_to:toy_encode ~decode:toy_decode ~self:(pid 0)
        ~n:2
        ~port_of:(fun p -> port + Proc_id.to_int p)
        ~stats:(Stats.create ()) ()
    in
    Unix.putenv "TW_MMSG" "0";
    let t = mk (raw_base_port + 24) in
    let disabled = Transport.batched t in
    Transport.close t;
    Unix.putenv "TW_MMSG" "";
    let t = mk (raw_base_port + 24) in
    let restored = Transport.batched t in
    Transport.close t;
    Alcotest.(check bool) "TW_MMSG=0 forces the fallback" false disabled;
    Alcotest.(check bool) "unset re-enables batching" true restored
  end

(* ------------------------------------------------------------------ *)
(* the per-domain receive ring: every transport a domain drains reads
   into the same buffers, so a frame must be wholly decoded before the
   next drain, and a drain may not nest inside a handler *)

let ring_base_port = 48960

(* sender id, then a payload string the decoder copies out *)
let str_encode ~sender (m : string) w =
  Wire.reset w;
  Wire.int w (Proc_id.to_int sender);
  Wire.string w m;
  Wire.pos w

let str_decode buf ~pos ~len =
  let r = Wire.reader_bytes ~pos ~len buf in
  let src = Wire.r_int r in
  let m = Wire.r_string r in
  Ok (Proc_id.of_int src, m)

let mk_str_transport ?(stats = Stats.create ()) ~batching ~port ~n self =
  let t =
    Transport.create ~encode_to:str_encode ~decode:str_decode ~batching ~self
      ~n
      ~port_of:(fun p -> port + Proc_id.to_int p)
      ~stats ()
  in
  (* a whole round of frames, the largest datagram among them, waits in
     the socket before its drain *)
  Unix.setsockopt_int (Transport.fd t) Unix.SO_RCVBUF (1 lsl 20);
  t

(* block (up to a second) until [t]'s socket has a datagram *)
let wait_readable t =
  let revents = [| 0 |] in
  ignore
    (Runtime.Poll.wait ~fds:[| Transport.fd t |] ~revents
       ~timeout_us:1_000_000)

(* the payload that makes a [str_encode] frame exactly the largest UDP
   datagram *)
let max_frame_payload ~sender ~fill =
  let frame_len payload =
    let w = Wire.writer () in
    str_encode ~sender payload w
  in
  let probe = String.make Codec.max_frame fill in
  let overhead = frame_len probe - Codec.max_frame in
  let payload = String.make (Codec.max_frame - overhead) fill in
  Alcotest.(check int) "largest frame is the datagram limit" Codec.max_frame
    (frame_len payload);
  payload

let ring_receivers = 5
let ring_rounds = 3

(* more than twice the 16-slot ring per drain *)
let frames_per_drain = 40

let round_payloads ~sender ~dst ~round =
  List.init frames_per_drain (fun i ->
      let tag = Printf.sprintf "r%d-d%d-f%d:" round dst i in
      if i = frames_per_drain / 2 then
        let fill = Char.chr (Char.code 'a' + ((round * 7) + dst) mod 26) in
        let big = max_frame_payload ~sender ~fill in
        tag ^ String.sub big 0 (String.length big - String.length tag)
      else tag ^ String.make ((i * 37) mod 200) (Char.chr (Char.code 'A' + dst)))

(* Five receivers and one sender in the calling domain. Each round
   sends every receiver its own frames, then drains the receivers one
   after another, starting at a different one each round. Returns, per
   receiver, what was sent, what arrived (sender, payload) in order,
   and the recvmmsg syscalls its drains made. *)
let ring_exchange ~batching ~port =
  let n = ring_receivers + 1 in
  let sender_id = pid ring_receivers in
  let stats = Array.init ring_receivers (fun _ -> Stats.create ()) in
  let receivers =
    Array.init ring_receivers (fun i ->
        mk_str_transport ~stats:stats.(i) ~batching ~port ~n (pid i))
  in
  let sender = mk_str_transport ~batching ~port ~n sender_id in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Transport.close receivers;
      Transport.close sender)
  @@ fun () ->
  let sent = Array.make ring_receivers [] in
  let got = Array.make ring_receivers [] in
  for round = 0 to ring_rounds - 1 do
    for d = 0 to ring_receivers - 1 do
      let payloads = round_payloads ~sender:sender_id ~dst:d ~round in
      List.iter (fun m -> Transport.send sender ~dst:(pid d) m) payloads;
      Transport.flush sender;
      sent.(d) <- sent.(d) @ payloads
    done;
    for k = 0 to ring_receivers - 1 do
      let d = (k + round) mod ring_receivers in
      let t = receivers.(d) in
      let want = (round + 1) * frames_per_drain in
      let tries = ref 50 in
      while List.length got.(d) < want && !tries > 0 do
        decr tries;
        wait_readable t;
        ignore
          (Transport.drain t ~handler:(fun ~src m ->
               got.(d) <- got.(d) @ [ (Proc_id.to_int src, m) ]))
      done
    done
  done;
  Array.to_list
    (Array.mapi
       (fun d st ->
         (sent.(d), got.(d), Stats.count st "live:syscall:recvmmsg"))
       stats)

let check_exchange ~batching ~label results =
  List.iteri
    (fun d (sent, got, recvmmsg) ->
      let name what = Printf.sprintf "%s: receiver %d %s" label d what in
      Alcotest.(check int) (name "frame count")
        (ring_rounds * frames_per_drain) (List.length got);
      Alcotest.(check bool) (name "hears only the sender") true
        (List.for_all (fun (src, _) -> src = ring_receivers) got);
      Alcotest.(check bool) (name "own frames, byte-identical, in order")
        true
        (List.map snd got = sent);
      if batching then
        Alcotest.(check bool) (name "drains cross the ring") true
          (recvmmsg >= ring_rounds * 3))
    results

let test_shared_ring ~batching () =
  if batching && not Runtime.Mmsg.supported then ()
  else
    let port = ring_base_port + if batching then 0 else 10 in
    check_exchange ~batching ~label:"one domain"
      (ring_exchange ~batching ~port)

let test_shared_ring_sharded ~batching () =
  if batching && not Runtime.Mmsg.supported then ()
  else
    let port = ring_base_port + if batching then 20 else 40 in
    Cluster.Sharded.run ~shards:2 (fun ~shard ->
        ring_exchange ~batching ~port:(port + (shard * 10)))
    |> List.iteri (fun shard results ->
           check_exchange ~batching
             ~label:(Printf.sprintf "shard %d" shard)
             results)

let test_nested_drain_raises ~batching () =
  if batching && not Runtime.Mmsg.supported then ()
  else begin
    let port = ring_base_port + if batching then 60 else 65 in
    let t0 = mk_str_transport ~batching ~port ~n:3 (pid 0) in
    let t1 = mk_str_transport ~batching ~port ~n:3 (pid 1) in
    let s = mk_str_transport ~batching ~port ~n:3 (pid 2) in
    Fun.protect
      ~finally:(fun () -> List.iter Transport.close [ t0; t1; s ])
      (fun () ->
        Transport.send s ~dst:(pid 0) "outer";
        Transport.send s ~dst:(pid 1) "inner";
        Transport.flush s;
        wait_readable t0;
        wait_readable t1;
        let nested () =
          Transport.drain t0 ~handler:(fun ~src:_ _ ->
              ignore (Transport.drain t1 ~handler:(fun ~src:_ _ -> ())))
        in
        Alcotest.(check bool) "a drain inside a handler raises" true
          (match nested () with
          | _ -> false
          | exception Invalid_argument _ -> true);
        let got = ref [] in
        ignore (Transport.drain t1 ~handler:(fun ~src:_ m -> got := m :: !got));
        Alcotest.(check (list string)) "the next drain runs normally"
          [ "inner" ] !got)
  end

(* In a fresh domain, the first drain allocates the domain's receive
   buffer (1 MiB ring batched, one 64 KiB datagram buffer on the
   fallback); a second transport's first drain reuses it. *)
let test_ring_allocated_once ~batching () =
  if batching && not Runtime.Mmsg.supported then ()
  else begin
    let port = ring_base_port + if batching then 70 else 75 in
    let first, second =
      Domain.join
        (Domain.spawn (fun () ->
             let t0 = mk_str_transport ~batching ~port ~n:3 (pid 0) in
             let t1 = mk_str_transport ~batching ~port ~n:3 (pid 1) in
             let s = mk_str_transport ~batching ~port ~n:3 (pid 2) in
             Fun.protect
               ~finally:(fun () -> List.iter Transport.close [ t0; t1; s ])
               (fun () ->
                 Transport.send s ~dst:(pid 0) "a";
                 Transport.send s ~dst:(pid 1) "b";
                 Transport.flush s;
                 wait_readable t0;
                 wait_readable t1;
                 let first_drain t =
                   let before = Gc.allocated_bytes () in
                   let k = Transport.drain t ~handler:(fun ~src:_ _ -> ()) in
                   if k <> 1 then Alcotest.failf "drained %d frames, want 1" k;
                   Gc.allocated_bytes () -. before
                 in
                 let first = first_drain t0 in
                 (first, first_drain t1))))
    in
    Alcotest.(check bool)
      (Printf.sprintf "the domain's first drain allocates its buffer (%.0f B)"
         first)
      true (first >= 65536.0);
    Alcotest.(check bool)
      (Printf.sprintf "a second transport's first drain adds %.0f B < 64 KiB"
         second)
      true (second < 65536.0)
  end

(* the poll(2) binding under the cluster loop *)
let test_poll_wait () =
  let port = raw_base_port + 32 in
  let a = raw_receiver port in
  let b = raw_receiver (port + 1) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let fds = [| a; b |] in
      let revents = [| 0; 0 |] in
      (* nothing readable: times out with no descriptor marked *)
      (match Runtime.Poll.wait ~fds ~revents ~timeout_us:10_000 with
      | Ok 0 -> ()
      | Ok n -> Alcotest.failf "expected 0 ready, got %d" n
      | Error _ -> Alcotest.fail "poll errored on idle sockets");
      Alcotest.(check (list int)) "no revents" [ 0; 0 ]
        (Array.to_list revents);
      (* one datagram to b: only b's slot lights up *)
      let payload = Bytes.of_string "x" in
      ignore
        (Unix.sendto a payload 0 1 []
           (Unix.ADDR_INET (Unix.inet_addr_loopback, port + 1)));
      (match Runtime.Poll.wait ~fds ~revents ~timeout_us:1_000_000 with
      | Ok n -> Alcotest.(check int) "one ready" 1 n
      | Error _ -> Alcotest.fail "poll errored with a datagram pending");
      Alcotest.(check (list int)) "only b readable" [ 0; 1 ]
        (Array.to_list revents);
      (* revents array length is validated *)
      Alcotest.(check bool) "short revents rejected" true
        (match Runtime.Poll.wait ~fds ~revents:[| 0 |] ~timeout_us:0 with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_poll_us_of_span () =
  Alcotest.(check int) "zero span" 0 (Runtime.Poll.us_of_span 0.0);
  Alcotest.(check int) "negative span" 0 (Runtime.Poll.us_of_span (-1.0));
  (* sub-microsecond spans round UP to 1 us: a positive wait never
     becomes a zero-timeout poll *)
  Alcotest.(check int) "0.1 us rounds up" 1 (Runtime.Poll.us_of_span 1e-7);
  Alcotest.(check int) "1 us exact" 1 (Runtime.Poll.us_of_span 1e-6);
  Alcotest.(check int) "10.4 us rounds up" 11
    (Runtime.Poll.us_of_span 10.4e-6);
  (* every whole-microsecond span the poll loop hands over comes back
     unchanged, with no extra microsecond from float error *)
  for us = 0 to 100_000 do
    let span = Time.to_sec_f (Time.of_us us) in
    if Runtime.Poll.us_of_span span <> us then
      Alcotest.failf "%d us came back as %d" us (Runtime.Poll.us_of_span span)
  done

(* A node's timers, armed at times that fall between wheel ticks, never
   reach [on_timer] before their due time, and the node's scheduling
   counters add up what the automaton saw. Each timer re-arms itself
   once at another odd offset from inside [on_timer]. *)
let test_node_timers_never_early () =
  let offsets_us = [ 7; 333; 1_037; 2_513; 4_999; 9_011 ] in
  let armed = Hashtbl.create 16 in
  let fires = ref [] in
  let arm ~key ~at_clock =
    Hashtbl.replace armed key at_clock;
    Engine.Set_timer { key; at_clock }
  in
  let automaton : (int, int, unit) Engine.automaton =
    {
      name = "timers";
      init =
        (fun ~self:_ ~n:_ ~clock ~incarnation:_ ->
          ( 0,
            List.mapi
              (fun key off ->
                arm ~key ~at_clock:(Time.add clock (Time.of_us off)))
              offsets_us ));
      on_receive = (fun s ~clock:_ ~src:_ _ -> (s, []));
      on_timer =
        (fun s ~clock ~key ->
          fires := (key, Hashtbl.find armed key, clock) :: !fires;
          if key < 100 then
            ( s + 1,
              [
                (let off = Time.of_us (List.nth offsets_us key + 11) in
                 arm ~key:(key + 100) ~at_clock:(Time.add clock off));
              ] )
          else (s + 1, []));
    }
  in
  let clock = Clock.create () in
  let node =
    Node.create ~automaton ~clock
      ~mk_transport:(fun stats ->
        Transport.create ~encode_to:toy_encode ~decode:toy_decode ~self:(pid 0)
          ~n:1
          ~port_of:(fun p -> raw_base_port + 48 + Proc_id.to_int p)
          ~stats ())
      ()
  in
  Fun.protect ~finally:(fun () -> Node.kill node) @@ fun () ->
  let cluster = Cluster.create ~clock ~nodes:[ node ] in
  Cluster.start cluster;
  let want = 2 * List.length offsets_us in
  let all_fired =
    Cluster.run_until cluster
      ~deadline:(Time.add (Clock.now clock) (Time.of_sec 5))
      (fun () -> List.length !fires = want)
  in
  Alcotest.(check bool) "every timer fired" true all_fired;
  List.iter
    (fun (key, at_clock, clock) ->
      if Time.compare clock at_clock < 0 then
        Alcotest.failf "timer %d fired at %a, before its due time %a" key
          Time.pp clock Time.pp at_clock)
    !fires;
  let stats = Node.stats node in
  Alcotest.(check int) "timer-fires counts each fire" want
    (Stats.count stats "live:sched:timer-fires");
  Alcotest.(check int) "timer-late-us sums clock - at_clock"
    (List.fold_left
       (fun acc (_, at_clock, clock) ->
         acc + Time.to_us (Time.sub clock at_clock))
       0 !fires)
    (Stats.count stats "live:sched:timer-late-us")

(* ------------------------------------------------------------------ *)
(* restart supervisor: backoff shape and the retry loop *)

let ms = Time.of_ms

let test_supervisor_backoff () =
  let rng = Rng.create 7 in
  let pol =
    { Supervisor.base = ms 500; cap = Time.of_sec 30; jitter = 0.0;
      max_restarts = 10 }
  in
  let b k = Supervisor.backoff pol ~rng ~restarts:k in
  Alcotest.(check bool) "first backoff = base" true (Time.equal (b 1) (ms 500));
  Alcotest.(check bool) "doubles" true (Time.equal (b 2) (ms 1000));
  Alcotest.(check bool) "doubles again" true (Time.equal (b 3) (ms 2000));
  Alcotest.(check bool) "caps" true (Time.equal (b 10) (Time.of_sec 30));
  (* far past the cap the exponent itself is clamped: no overflow *)
  Alcotest.(check bool) "deep restart count still capped" true
    (Time.equal (b 1000) (Time.of_sec 30));
  (* jitter keeps every draw within [1-j, 1+j] of the deterministic
     value *)
  let jpol = { pol with Supervisor.jitter = 0.2 } in
  for _ = 1 to 200 do
    let d = Supervisor.backoff jpol ~rng ~restarts:3 in
    if
      Time.compare d (Time.scale (ms 2000) 0.8) < 0
      || Time.compare d (Time.scale (ms 2000) 1.2) > 0
    then Alcotest.failf "jittered backoff %a out of bounds" Time.pp d
  done;
  Alcotest.(check bool) "restarts < 1 rejected" true
    (match Supervisor.backoff pol ~rng ~restarts:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "jitter >= 1 rejected" true
    (match
       Supervisor.backoff { pol with Supervisor.jitter = 1.0 } ~rng ~restarts:1
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_supervisor_run () =
  let policy =
    { Supervisor.base = ms 10; cap = ms 80; jitter = 0.0; max_restarts = 5 }
  in
  let sleeps = ref [] in
  let sleep t = sleeps := t :: !sleeps in
  (* crashes twice (an exception, then a nonzero exit), then succeeds *)
  let outcome =
    Supervisor.run ~policy ~seed:1 ~sleep (fun ~restarts ->
        match restarts with 0 -> failwith "boom" | 1 -> 3 | _ -> 0)
  in
  (match outcome with
  | Supervisor.Done restarts ->
    Alcotest.(check int) "took two restarts" 2 restarts
  | Supervisor.Gave_up _ -> Alcotest.fail "supervisor gave up early");
  Alcotest.(check int) "slept once per restart" 2 (List.length !sleeps);
  (match List.rev !sleeps with
  | [ b1; b2 ] ->
    Alcotest.(check bool) "backoff grows between restarts" true
      (Time.compare b1 b2 < 0)
  | _ -> Alcotest.fail "unexpected sleep trace");
  (* a body that never recovers is abandoned after max_restarts *)
  let calls = ref 0 in
  let outcome =
    Supervisor.run ~policy ~seed:1
      ~sleep:(fun _ -> ())
      (fun ~restarts:_ ->
        incr calls;
        7)
  in
  (match outcome with
  | Supervisor.Gave_up { restarts; last } ->
    Alcotest.(check int) "gave up at the cap" policy.Supervisor.max_restarts
      restarts;
    Alcotest.(check string) "records the last failure" "exit code 7" last
  | Supervisor.Done _ -> Alcotest.fail "supervisor must give up");
  Alcotest.(check int) "initial run + max_restarts attempts"
    (policy.Supervisor.max_restarts + 1)
    !calls

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "runtime"
    [
      ( "codec",
        [
          qcheck round_trip;
          qcheck encode_to_identical;
          Alcotest.test_case "encode_to allocates nothing (steady kinds)"
            `Quick encode_to_zero_alloc;
          Alcotest.test_case "decode_bytes reads a window in place" `Quick
            decode_bytes_window;
          Alcotest.test_case "state-transfer frame stays bounded" `Quick
            state_transfer_bounded;
          Alcotest.test_case "structural round trip" `Quick
            round_trip_structural;
          Alcotest.test_case "rejects truncated frames" `Quick rejects_truncated;
          Alcotest.test_case "rejects over-length frames" `Quick
            rejects_over_length;
          Alcotest.test_case "rejects wrong version" `Quick
            rejects_wrong_version;
          Alcotest.test_case "rejects bad magic" `Quick rejects_bad_magic;
          Alcotest.test_case "rejects an inverted delivered range" `Quick
            rejects_empty_range;
          Alcotest.test_case "rejects retired control tag 9" `Quick
            rejects_retired_control_tag;
          qcheck decode_total;
          qcheck mutation_total;
        ] );
      ( "live store",
        [
          Alcotest.test_case "record codec round trip" `Quick store_round_trip;
          Alcotest.test_case "on-disk backend" `Quick store_disk;
          Alcotest.test_case "CRC-32 check vector, incremental digest" `Quick
            crc32_vector;
          Alcotest.test_case "rejects every corruption" `Quick
            store_rejects_corruption;
          qcheck store_codec_round_trip;
          Alcotest.test_case "torn write: tmp debris tolerated" `Quick
            store_torn_write_tolerated;
          Alcotest.test_case "restore is total" `Quick store_restore_total;
        ]
        @ conformance with_disk_store );
      ("mem store", conformance with_memory_store);
      ( "impairment",
        [
          Alcotest.test_case "loopback shim delays, drops, releases" `Quick
            test_impair_shim;
          Alcotest.test_case "shim rejects bad parameters" `Quick
            test_impair_validation;
          Alcotest.test_case "select timeout clamps the busy-spin" `Quick
            test_select_timeout;
          Alcotest.test_case "edges: total loss, jitter-only, clear keeps held"
            `Quick test_impair_edges;
          Alcotest.test_case "hold queue stops at its cap, overflow counted"
            `Quick test_hold_queue_cap;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batched and fallback wire bytes identical" `Quick
            test_batched_fallback_identical;
          Alcotest.test_case "broadcast copies are byte-identical" `Quick
            test_broadcast_identical_bytes;
          Alcotest.test_case "full batch flushes itself" `Quick
            test_batch_flush_on_pressure;
          Alcotest.test_case "TW_MMSG=0 forces the fallback" `Quick
            test_env_disables_batching;
        ] );
      ( "recv ring",
        List.concat_map
          (fun (path, batching) ->
            [
              Alcotest.test_case
                ("five transports share one domain's ring, " ^ path)
                `Quick
                (test_shared_ring ~batching);
              Alcotest.test_case ("one ring per shard, " ^ path) `Quick
                (test_shared_ring_sharded ~batching);
              Alcotest.test_case ("a drain inside a handler raises, " ^ path)
                `Quick
                (test_nested_drain_raises ~batching);
              Alcotest.test_case
                ("a second transport's first drain allocates no buffer, "
                ^ path)
                `Quick
                (test_ring_allocated_once ~batching);
            ])
          [ ("batched", true); ("fallback", false) ] );
      ( "poll",
        [
          Alcotest.test_case "wait: timeout, readiness, validation" `Quick
            test_poll_wait;
          Alcotest.test_case "us_of_span rounds up, clamps at zero" `Quick
            test_poll_us_of_span;
        ] );
      ( "node",
        [
          Alcotest.test_case "timers never fire before they are due" `Quick
            test_node_timers_never_early;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "backoff doubles, caps, jitters in bounds" `Quick
            test_supervisor_backoff;
          Alcotest.test_case "retries with backoff, gives up at the cap" `Quick
            test_supervisor_run;
        ] );
    ]
