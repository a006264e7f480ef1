open Tasim

(* interned counter handles for one message kind — resolved once per
   kind, then every datagram is a couple of [Stats.bump]s *)
type kind_counters = {
  kc_sent : Stats.counter;
  kc_sent_bytes : Stats.counter;
  kc_recv : Stats.counter;
  kc_recv_bytes : Stats.counter;
}

(* loopback impairment shim: an outbound per-peer rule, Net-style.
   Frames to an impaired destination may be dropped or held and
   released by [pump] once their due time passes — the live mirror of
   the simulator's per-link timeliness overrides. *)
type impair_rule = { ir_delay : Time.t; ir_jitter : Time.t; ir_drop : float }
type held = { h_due : Time.t; h_dst : int; h_frame : Bytes.t }

(* At most this many frames wait in one transport's hold queue; a frame
   that finds it full is dropped and counted as [live:impair:overflow].
   Each held frame is a copy of at most one datagram, so this bounds the
   shim's memory. A 20 ms hold at a few hundred frames/s (the chaos
   scenarios' impaired links) keeps a few dozen frames inside it. *)
let held_cap = 1024

(* Outbound frames accumulate here, back to back in [bt_buf], and
   leave in one [sendmmsg] per [flush] (or a sendto loop on the
   fallback path — same frames, same flush points, different syscall
   count). [bt_meta] is the [| off; len; port |]-per-message layout
   the C stub consumes; [bt_dst] keeps the destination index for the
   fallback and for nothing else. [bt_writer] is one long-lived fixed
   writer rebased at the batch tail per frame, so the batched encode
   allocates exactly as much as the unbatched one did: nothing. *)
type batch = {
  bt_buf : Bytes.t;
  bt_meta : int array;
  bt_dst : int array;
  mutable bt_len : int;
  mutable bt_count : int;
  bt_writer : Wire.writer;
}

(* Receive buffers, one set per domain rather than per transport, in
   domain-local storage like [Codec]'s scratch. [recvmmsg] datagram [i]
   of one syscall lands at offset [i * ring_slot] of the ring; the
   portable fallback reads one datagram at a time into its own buffer.
   A slot is 65536 >= the largest UDP datagram, so frames are never
   truncated. Each buffer is allocated on its path's first drain in the
   domain (a fallback-only domain never pays for the ring).

   Sharing is sound because a frame is fully decoded (strings copied
   out) before its slot is reused, and the transports of one domain
   drain one at a time. A handler that drained a transport itself would
   break the second condition — the nested drain would overwrite slots
   the outer one has not read yet — so [draining_key] marks a drain in
   progress and a nested one raises. *)
let ring_slot = 65536
let ring_vlen = 16

type rx_ring = { rx_slots : Bytes.t; rx_lens : int array }

let rx_ring_key =
  Domain.DLS.new_key (fun () ->
      {
        rx_slots = Bytes.create (ring_vlen * ring_slot);
        rx_lens = Array.make ring_vlen 0;
      })

let rx_datagram_key = Domain.DLS.new_key (fun () -> Bytes.create ring_slot)
let draining_key = Domain.DLS.new_key (fun () -> ref false)

type 'm t = {
  encode_to : sender:Proc_id.t -> 'm -> Wire.writer -> int;
  decode :
    Bytes.t -> pos:int -> len:int -> (Proc_id.t * 'm, Codec.error) result;
  kind_of : 'm -> string;
  self : Proc_id.t;
  n : int;
  addrs : Unix.sockaddr array; (* indexed by proc id; built once *)
  ports : int array; (* same index; what the sendmmsg stub needs *)
  socket : Unix.file_descr;
  batch : batch;
  stats : Stats.t;
  kinds : (string, kind_counters) Hashtbl.t;
  sent_total : Stats.counter;
  recv_total : Stats.counter;
  drop_send : Stats.counter;
  drop_oversize : Stats.counter;
  drop_foreign : Stats.counter;
  drop_truncated : Stats.counter;
  drop_bad_magic : Stats.counter;
  drop_bad_version : Stats.counter;
  drop_length_mismatch : Stats.counter;
  drop_malformed : Stats.counter;
  sc_sendto : Stats.counter;
  sc_recvfrom : Stats.counter;
  sc_sendmmsg : Stats.counter;
  sc_recvmmsg : Stats.counter;
  (* the shim is off ([impair_count = 0]) unless a scenario installs a
     rule, so the zero-allocation data plane is untouched by default *)
  mutable impair_rules : impair_rule option array; (* length 0 = never used *)
  mutable impair_count : int;
  mutable impair_clock : unit -> Time.t;
  impair_rng : Rng.t;
  mutable held : held list; (* newest first; pump sorts the due ones *)
  mutable held_count : int; (* List.length held, at most held_cap *)
  impair_dropped : Stats.counter;
  impair_overflow : Stats.counter;
  impair_released : Stats.counter;
  mutable use_mmsg : bool; (* downgrades once on runtime ENOSYS *)
  mutable closed : bool;
}

let create ~encode_to ~decode ?(kind_of = fun _ -> "msg") ?batching ~self ~n
    ~port_of ~stats () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (match
     Unix.set_nonblock socket;
     Unix.setsockopt socket Unix.SO_REUSEADDR true;
     Unix.bind socket
       (Unix.ADDR_INET (Unix.inet_addr_loopback, port_of self))
   with
  | () -> ()
  | exception e ->
    Unix.close socket;
    raise e);
  let addrs =
    Array.init n (fun p ->
        Unix.ADDR_INET (Unix.inet_addr_loopback, port_of (Proc_id.of_int p)))
  in
  let ports = Array.init n (fun p -> port_of (Proc_id.of_int p)) in
  (* two max frames, so after a pressure flush the next frame always
     fits and a single frame can never overflow for size reasons the
     old 64 KiB scratch buffer tolerated *)
  let bt_buf = Bytes.create (2 * 65536) in
  let use_mmsg =
    match batching with Some b -> b && Mmsg.supported | None -> Mmsg.default_enabled ()
  in
  {
    encode_to;
    decode;
    kind_of;
    self;
    n;
    addrs;
    ports;
    socket;
    batch =
      {
        bt_buf;
        bt_meta = Array.make (3 * Mmsg.slots) 0;
        bt_dst = Array.make Mmsg.slots 0;
        bt_len = 0;
        bt_count = 0;
        bt_writer = Wire.writer_into bt_buf ~pos:0;
      };
    stats;
    kinds = Hashtbl.create 16;
    sent_total = Stats.counter stats "live:sent";
    recv_total = Stats.counter stats "live:recv";
    drop_send = Stats.counter stats "live:drop:send";
    drop_oversize = Stats.counter stats "live:drop:oversize";
    drop_foreign = Stats.counter stats "live:drop:foreign-sender";
    drop_truncated = Stats.counter stats "live:drop:truncated";
    drop_bad_magic = Stats.counter stats "live:drop:bad-magic";
    drop_bad_version = Stats.counter stats "live:drop:bad-version";
    drop_length_mismatch = Stats.counter stats "live:drop:length-mismatch";
    drop_malformed = Stats.counter stats "live:drop:malformed";
    sc_sendto = Stats.counter stats "live:syscall:sendto";
    sc_recvfrom = Stats.counter stats "live:syscall:recvfrom";
    sc_sendmmsg = Stats.counter stats "live:syscall:sendmmsg";
    sc_recvmmsg = Stats.counter stats "live:syscall:recvmmsg";
    impair_rules = [||];
    impair_count = 0;
    impair_clock = (fun () -> Time.zero);
    (* deterministic per process, like the simulator's seeded streams *)
    impair_rng = Rng.create (0x7731 + Proc_id.to_int self);
    held = [];
    held_count = 0;
    impair_dropped = Stats.counter stats "live:impair:drop";
    impair_overflow = Stats.counter stats "live:impair:overflow";
    impair_released = Stats.counter stats "live:impair:released";
    use_mmsg;
    closed = false;
  }

let self t = t.self
let n t = t.n
let fd t = t.socket
let is_closed t = t.closed
let batched t = t.use_mmsg

let slow_kind_counters t kind =
  let kc =
    {
      kc_sent = Stats.counter t.stats ("live:sent:" ^ kind);
      kc_sent_bytes = Stats.counter t.stats ("live:sent-bytes:" ^ kind);
      kc_recv = Stats.counter t.stats ("live:recv:" ^ kind);
      kc_recv_bytes = Stats.counter t.stats ("live:recv-bytes:" ^ kind);
    }
  in
  Hashtbl.add t.kinds kind kc;
  kc

(* [Hashtbl.find], not [find_opt]: no [Some] box on the per-datagram
   path (kinds are a handful of static strings, so after warm-up the
   exception branch never runs) *)
let kind_counters t kind =
  try Hashtbl.find t.kinds kind with Not_found -> slow_kind_counters t kind

let try_sendto t buf ~pos ~len dst =
  Stats.bump t.sc_sendto;
  match Unix.sendto t.socket buf pos len [] t.addrs.(dst) with
  | _ -> true
  | exception
      Unix.Unix_error
        ((EWOULDBLOCK | EAGAIN | ECONNREFUSED | ENOBUFS | EINTR), _, _) ->
    (* an unreliable datagram service may drop; the stack copes *)
    Stats.bump t.drop_send;
    false

(* ------------------------------------------------------------------ *)
(* Batched send path *)

let flush_sendto t ~from =
  let b = t.batch in
  for i = from to b.bt_count - 1 do
    ignore
      (try_sendto t b.bt_buf ~pos:b.bt_meta.(3 * i) ~len:b.bt_meta.((3 * i) + 1)
         b.bt_dst.(i))
  done

let drop_rest t ~from =
  Stats.bump_by t.drop_send (t.batch.bt_count - from)

(* One sendmmsg per [Mmsg.slots] frames in the common case. Error
   semantics mirror the per-datagram path: would-block / no-buffers
   drops the remainder (the kernel queue is full; the protocol
   retransmits), a connection-refused bounce — async ICMP from an
   earlier datagram to a dead peer — charges one frame and moves on,
   EINTR retries. The attempt bound makes any kernel misbehavior
   terminate in drops rather than a spin. *)
let flush_mmsg t =
  let b = t.batch in
  let from = ref 0 in
  let attempts = ref 0 in
  let max_attempts = (2 * b.bt_count) + 8 in
  while !from < b.bt_count && t.use_mmsg do
    if !attempts > max_attempts then begin
      drop_rest t ~from:!from;
      from := b.bt_count
    end
    else begin
      incr attempts;
      Stats.bump t.sc_sendmmsg;
      match
        Mmsg.send_batch t.socket ~buf:b.bt_buf ~meta:b.bt_meta ~from:!from
          ~count:b.bt_count
      with
      | Ok 0 ->
        (* kernel accepted nothing without raising: treat as pressure *)
        drop_rest t ~from:!from;
        from := b.bt_count
      | Ok k -> from := !from + k
      | Error `Refused ->
        Stats.bump t.drop_send;
        incr from
      | Error `Intr -> ()
      | Error (`Would_block | `Error) ->
        drop_rest t ~from:!from;
        from := b.bt_count
      | Error `Unsupported ->
        (* runtime ENOSYS: downgrade for good, finish this batch over
           sendto so no frame is lost to the probe *)
        t.use_mmsg <- false
    end
  done;
  if not t.use_mmsg then flush_sendto t ~from:!from

let flush t =
  let b = t.batch in
  if b.bt_count > 0 then begin
    if not t.closed then
      if t.use_mmsg then flush_mmsg t else flush_sendto t ~from:0;
    b.bt_count <- 0;
    b.bt_len <- 0
  end

(* Encode at the batch tail through the long-lived writer; on fixed
   buffer overflow flush the pending frames and retry once from an
   empty buffer — only a frame too large for the buffer itself (and
   therefore far over the datagram limit) still fails. *)
let encode_frame t msg =
  let b = t.batch in
  Wire.rebase b.bt_writer b.bt_buf ~pos:b.bt_len;
  match t.encode_to ~sender:t.self msg b.bt_writer with
  | len -> len
  | exception Wire.Error _ ->
    if b.bt_count = 0 then -1
    else begin
      flush t;
      Wire.rebase b.bt_writer b.bt_buf ~pos:0;
      (match t.encode_to ~sender:t.self msg b.bt_writer with
      | len -> len
      | exception Wire.Error _ -> -1)
    end

let count_sent t msg len =
  Stats.bump t.sent_total;
  let kc = kind_counters t (t.kind_of msg) in
  Stats.bump kc.kc_sent;
  Stats.bump_by kc.kc_sent_bytes len

(* Route one encoded frame, sitting in the batch buffer at [off], to
   [d]: commit a meta entry pointing at it, or hand it to the
   impairment shim, which sends it inline or holds its own copy.
   Returns whether a batch entry now reads the frame. *)
let route t msg ~off ~len d =
  let b = t.batch in
  let rule = if t.impair_count = 0 then None else t.impair_rules.(d) in
  match rule with
  | None ->
    (* commit the frame to the batch; it counts as sent now (an
       unreliable datagram service may still drop it at flush) *)
    let i = b.bt_count in
    b.bt_meta.(3 * i) <- off;
    b.bt_meta.((3 * i) + 1) <- len;
    b.bt_meta.((3 * i) + 2) <- t.ports.(d);
    b.bt_dst.(i) <- d;
    b.bt_count <- i + 1;
    count_sent t msg len;
    true
  | Some r ->
    (* impaired destinations bypass the batch: the shim owns their
       timing *)
    if Rng.bool t.impair_rng r.ir_drop then Stats.bump t.impair_dropped
    else begin
      let extra =
        if Time.compare r.ir_jitter Time.zero > 0 then
          Time.add r.ir_delay (Rng.uniform_time t.impair_rng Time.zero r.ir_jitter)
        else r.ir_delay
      in
      if Time.compare extra Time.zero <= 0 then begin
        if try_sendto t b.bt_buf ~pos:off ~len d then count_sent t msg len
      end
      else if t.held_count >= held_cap then Stats.bump t.impair_overflow
      else begin
        (* held frames count as sent now (the kind is only known here);
           [pump] transmits them when due *)
        let due = Time.add (t.impair_clock ()) extra in
        t.held <-
          { h_due = due; h_dst = d; h_frame = Bytes.sub b.bt_buf off len }
          :: t.held;
        t.held_count <- t.held_count + 1;
        count_sent t msg len
      end
    end;
    false

let peers = -1

(* Encode [msg] once at the batch tail and route it to destination
   index [dst], or to every process but [self] when [dst = peers]. The
   frame stays at the tail, uncommitted, unless some batch entry reads
   it. A batch that cannot take one entry per destination is flushed
   before the encode; a team larger than the batch flushes as it fills,
   the frame bytes staying where they are until the next encode. *)
let send_frame t msg ~dst =
  let b = t.batch in
  let count = if dst = peers then t.n - 1 else 1 in
  if b.bt_count > 0 && b.bt_count + count > Mmsg.slots then flush t;
  let len = encode_frame t msg in
  if len < 0 || len > Codec.max_frame then Stats.bump_by t.drop_oversize count
  else begin
    let off = b.bt_len in
    let committed = ref false in
    if dst <> peers then committed := route t msg ~off ~len dst
    else begin
      let self = Proc_id.to_int t.self in
      for d = 0 to t.n - 1 do
        if d <> self then begin
          if b.bt_count >= Mmsg.slots then flush t;
          if route t msg ~off ~len d then committed := true
        end
      done
    end;
    if !committed then begin
      b.bt_len <- off + len;
      if
        b.bt_count >= Mmsg.slots
        || b.bt_len + Codec.max_frame > Bytes.length b.bt_buf
      then flush t
    end
  end

let send t ~dst msg =
  if not t.closed then send_frame t msg ~dst:(Proc_id.to_int dst)

let broadcast t msg = if not t.closed then send_frame t msg ~dst:peers

(* ------------------------------------------------------------------ *)
(* Impairment shim management *)

let impair t ~dst ?(delay = Time.zero) ?(jitter = Time.zero) ?(drop = 0.0)
    ~now () =
  if Time.compare delay Time.zero < 0 then
    invalid_arg "Transport.impair: delay must be >= 0";
  if Time.compare jitter Time.zero < 0 then
    invalid_arg "Transport.impair: jitter must be >= 0";
  if drop < 0.0 || drop > 1.0 then
    invalid_arg "Transport.impair: drop out of [0,1]";
  if Array.length t.impair_rules = 0 then
    t.impair_rules <- Array.make t.n None;
  let d = Proc_id.to_int dst in
  if t.impair_rules.(d) = None then t.impair_count <- t.impair_count + 1;
  t.impair_rules.(d) <-
    Some { ir_delay = delay; ir_jitter = jitter; ir_drop = drop };
  t.impair_clock <- now

let clear_impair t ~dst =
  let d = Proc_id.to_int dst in
  if Array.length t.impair_rules > 0 && t.impair_rules.(d) <> None then begin
    t.impair_rules.(d) <- None;
    t.impair_count <- t.impair_count - 1
  end

let clear_impairments t =
  if Array.length t.impair_rules > 0 then Array.fill t.impair_rules 0 t.n None;
  t.impair_count <- 0;
  (* in-flight held frames are dropped, as a real link tear-down would *)
  Stats.bump_by t.impair_dropped t.held_count;
  t.held <- [];
  t.held_count <- 0

let impaired t = t.impair_count
let held t = t.held_count

let next_release t =
  List.fold_left
    (fun acc h ->
      match acc with
      | None -> Some h.h_due
      | Some d -> Some (Time.min d h.h_due))
    None t.held

let pump t ~now =
  if t.held = [] || t.closed then 0
  else begin
    let due, rest =
      List.partition (fun h -> Time.compare h.h_due now <= 0) t.held
    in
    t.held <- rest;
    t.held_count <- List.length rest;
    (* [held] is newest-first; reverse then stable-sort by due time so
       same-due frames to one peer keep their send order *)
    let due =
      List.stable_sort (fun a b -> Time.compare a.h_due b.h_due) (List.rev due)
    in
    List.iter
      (fun h ->
        ignore
          (try_sendto t h.h_frame ~pos:0 ~len:(Bytes.length h.h_frame) h.h_dst);
        Stats.bump t.impair_released)
      due;
    List.length due
  end

let drop_counter t (err : Codec.error) =
  match err with
  | Codec.Truncated -> t.drop_truncated
  | Bad_magic -> t.drop_bad_magic
  | Bad_version _ -> t.drop_bad_version
  | Length_mismatch _ -> t.drop_length_mismatch
  | Malformed _ -> t.drop_malformed

(* One received frame, wherever it landed (the domain's recvmmsg ring
   or its fallback buffer) — decoded in place; the datagram is fully
   consumed by [handler] before the buffer window is reused. *)
let handle_frame t ~handler buf ~pos ~len handled =
  match t.decode buf ~pos ~len with
  | Ok (src, msg) ->
    if Proc_id.to_int src < t.n && not (Proc_id.equal src t.self) then begin
      Stats.bump t.recv_total;
      let kc = kind_counters t (t.kind_of msg) in
      Stats.bump kc.kc_recv;
      Stats.bump_by kc.kc_recv_bytes len;
      incr handled;
      handler ~src msg
    end
    else Stats.bump t.drop_foreign
  | Error err -> Stats.bump (drop_counter t err)

let drain_mmsg t ~budget ~handler ~handled ~seen =
  let ring = Domain.DLS.get rx_ring_key in
  let continue = ref true in
  while !continue && !seen < budget && t.use_mmsg do
    let want = Stdlib.min ring_vlen (budget - !seen) in
    Stats.bump t.sc_recvmmsg;
    match
      Mmsg.recv_batch t.socket ~ring:ring.rx_slots ~slot:ring_slot
        ~lens:ring.rx_lens ~vlen:want
    with
    | Ok 0 | Error (`Would_block | `Error) -> continue := false
    | Ok got ->
      for i = 0 to got - 1 do
        incr seen;
        handle_frame t ~handler ring.rx_slots ~pos:(i * ring_slot)
          ~len:ring.rx_lens.(i) handled
      done;
      (* a short batch means the queue is (momentarily) empty *)
      if got < want then continue := false
    | Error (`Refused | `Intr) ->
      (* ICMP port-unreachable bounce from a dead peer: ignore *)
      ()
    | Error `Unsupported -> t.use_mmsg <- false
  done

let drain_loop t ~budget ~handler ~handled ~seen =
  let buf = Domain.DLS.get rx_datagram_key in
  let continue = ref true in
  while !continue && !seen < budget do
    Stats.bump t.sc_recvfrom;
    match Unix.recvfrom t.socket buf 0 ring_slot [] with
    | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN), _, _) ->
      continue := false
    | exception Unix.Unix_error ((ECONNREFUSED | EINTR), _, _) ->
      (* ICMP port-unreachable bounce from a dead peer: ignore *)
      ()
    | len, _src_addr ->
      incr seen;
      handle_frame t ~handler buf ~pos:0 ~len handled
  done

let drain_unguarded t ~budget ~handler =
  let handled = ref 0 in
  let seen = ref 0 in
  if t.use_mmsg then drain_mmsg t ~budget ~handler ~handled ~seen;
  (* covers both the fallback mode and a mid-drain ENOSYS downgrade *)
  if not t.use_mmsg then drain_loop t ~budget ~handler ~handled ~seen;
  !handled

let drain ?budget t ~handler =
  if t.closed then 0
  else begin
    let draining = Domain.DLS.get draining_key in
    if !draining then
      invalid_arg "Transport.drain: called from inside a drain handler";
    let budget = match budget with Some b -> b | None -> max_int in
    draining := true;
    match drain_unguarded t ~budget ~handler with
    | handled ->
      draining := false;
      handled
    | exception e ->
      draining := false;
      raise e
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.held <- [];
    t.held_count <- 0;
    (* pending batched frames go down with the process: crash-stop *)
    t.batch.bt_count <- 0;
    t.batch.bt_len <- 0;
    (try Unix.close t.socket with Unix.Unix_error _ -> ())
  end
