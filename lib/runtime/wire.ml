exception Error of string

let fail msg = raise (Error msg)

(* Writers target caller-visible [Bytes.t] so the transport send path
   can serialize into one reused scratch buffer: a growable writer
   ([writer ()]) doubles its backing array and is the allocation-when-
   needed path; a fixed writer ([writer_into]) writes a caller-owned
   buffer and raises {!Error} on overflow instead of growing. *)
type writer = {
  mutable out : Bytes.t;
  mutable wpos : int;
  mutable origin : int;
  growable : bool;
}

let writer () =
  { out = Bytes.create 256; wpos = 0; origin = 0; growable = true }

let writer_into buf ~pos =
  if pos < 0 || pos > Bytes.length buf then
    invalid_arg "Wire.writer_into: position out of bounds";
  { out = buf; wpos = pos; origin = pos; growable = false }

let pos w = w.wpos - w.origin
let reset w = w.wpos <- w.origin

(* Re-point a fixed writer at a new buffer/offset: the transport's
   batch path encodes every frame at the batch tail through one
   long-lived writer instead of allocating a writer per frame. *)
let rebase w buf ~pos =
  if w.growable then invalid_arg "Wire.rebase: writer is growable";
  if pos < 0 || pos > Bytes.length buf then
    invalid_arg "Wire.rebase: position out of bounds";
  w.out <- buf;
  w.wpos <- pos;
  w.origin <- pos

let contents w = Bytes.sub_string w.out w.origin (w.wpos - w.origin)

let ensure w n =
  if w.wpos + n > Bytes.length w.out then begin
    if not w.growable then fail "writer overflow: fixed buffer full";
    let cap = ref (Bytes.length w.out * 2) in
    while w.wpos + n > !cap do
      cap := !cap * 2
    done;
    let out = Bytes.create !cap in
    Bytes.blit w.out 0 out 0 w.wpos;
    w.out <- out
  end

let byte w v =
  ensure w 1;
  Bytes.unsafe_set w.out w.wpos (Char.unsafe_chr (v land 0xff));
  w.wpos <- w.wpos + 1

(* zigzag so small negative sentinels (-1 ordinals, Group_id.none) stay
   one byte; OCaml ints are 63-bit, hence the [asr 62] sign smear *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

(* a 63-bit zigzag value needs at most ceil(63/7) = 9 varint bytes *)
let max_varint = 9

(* recursion instead of a [ref] loop: the writer's mutable fields carry
   the state, so encoding an int touches no heap *)
let rec put_varint w z =
  if z land lnot 0x7f = 0 then begin
    Bytes.unsafe_set w.out w.wpos (Char.unsafe_chr z);
    w.wpos <- w.wpos + 1
  end
  else begin
    Bytes.unsafe_set w.out w.wpos (Char.unsafe_chr (0x80 lor (z land 0x7f)));
    w.wpos <- w.wpos + 1;
    put_varint w (z lsr 7)
  end

let int w n =
  ensure w max_varint;
  put_varint w (zigzag n)

let bool w b = byte w (if b then 1 else 0)

let string w s =
  let len = String.length s in
  int w len;
  ensure w len;
  Bytes.blit_string s 0 w.out w.wpos len;
  w.wpos <- w.wpos + len

let option f w = function
  | None -> byte w 0
  | Some v ->
    byte w 1;
    f w v

let list f w items =
  int w (List.length items);
  List.iter (f w) items

(* Length-prefixed region with the length varint in front: reserve the
   maximal varint width, write the payload, then encode the now-known
   length and close the gap with one in-buffer blit. The emitted bytes
   are exactly [int w len] followed by the payload — identical to a
   two-pass encode, without building the payload in a side buffer. *)

let begin_frame w =
  ensure w max_varint;
  let mark = w.wpos in
  w.wpos <- mark + max_varint;
  mark

let varint_width z =
  let rec go acc z = if z land lnot 0x7f = 0 then acc else go (acc + 1) (z lsr 7) in
  go 1 z

let rec put_varint_at w p z =
  if z land lnot 0x7f = 0 then Bytes.unsafe_set w.out p (Char.unsafe_chr z)
  else begin
    Bytes.unsafe_set w.out p (Char.unsafe_chr (0x80 lor (z land 0x7f)));
    put_varint_at w (p + 1) (z lsr 7)
  end

let end_frame w mark =
  let payload = mark + max_varint in
  let len = w.wpos - payload in
  let z = zigzag len in
  let k = varint_width z in
  if k < max_varint then begin
    Bytes.blit w.out payload w.out (mark + k) len;
    w.wpos <- mark + k + len
  end;
  put_varint_at w mark z

type reader = { mutable data : string; mutable pos : int; mutable limit : int }

let reader ?(pos = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Wire.reader: window out of bounds";
  { data; pos; limit = pos + len }

(* Re-aim an existing reader at a new window: the codec decodes every
   frame through one reused reader instead of allocating one per
   frame. [reset_window] is the allocation-free spelling — required
   labels, so no [Some] boxes materialize at the call site the way
   [reset_reader]'s optional arguments force. *)
let reset_window r data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Wire.reset_reader: window out of bounds";
  r.data <- data;
  r.pos <- pos;
  r.limit <- pos + len

let reset_reader r ?(pos = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  reset_window r data ~pos ~len

let reader_bytes ?pos ?len data =
  (* zero-copy view: sound because readers never write [data] and every
     caller (the transport drain loop) finishes decoding before it
     refills the buffer *)
  reader ?pos ?len (Bytes.unsafe_to_string data)

let remaining r = r.limit - r.pos

let r_byte r =
  if r.pos >= r.limit then fail "truncated: expected byte";
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* top-level so reading a varint allocates nothing: as an inner
   [let rec] this loop captured [r] and cost a fresh closure per
   [r_int] — the single largest decode-side allocation, paid for
   every integer field of every frame *)
let rec r_varint r shift acc =
  if shift > 62 then fail "varint too long";
  let b = r_byte r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else r_varint r (shift + 7) acc

let r_int r = unzigzag (r_varint r 0 0)

let r_bool r =
  match r_byte r with
  | 0 -> false
  | 1 -> true
  | b -> fail (Printf.sprintf "bad bool tag %d" b)

let r_string r =
  let len = r_int r in
  if len < 0 then fail "negative string length";
  if len > remaining r then fail "truncated: string overruns frame";
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let r_option f r =
  match r_byte r with
  | 0 -> None
  | 1 -> Some (f r)
  | b -> fail (Printf.sprintf "bad option tag %d" b)

let r_list f r =
  let count = r_int r in
  if count < 0 then fail "negative list count";
  (* every element costs at least one byte: reject counts no
     well-formed remainder of the frame could satisfy *)
  if count > remaining r then fail "list count overruns frame";
  List.init count (fun _ -> f r)
