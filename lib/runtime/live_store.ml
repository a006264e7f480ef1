open Tasim
open Broadcast
open Timewheel

type t = Member.persistent Storage.Store.t

(* Record codec: "TWST2" magic | epoch | seq | member list | CRC-32.

   The CRC covers everything before it and is stored as four raw
   big-endian bytes (fixed width, so the covered span is just
   [len - 4]). A record that parses but fails the checksum — a bit
   flip that landed in a value byte — is rejected the same as one
   that does not parse at all. *)

let record_magic = "TWST2"

let wire_of_persistent (p : Member.persistent) =
  let w = Wire.writer () in
  Wire.string w record_magic;
  Wire.int w (Group_id.epoch p.Member.last_group_id);
  Wire.int w (Group_id.seq p.Member.last_group_id);
  Wire.list
    (fun w pid -> Wire.int w (Proc_id.to_int pid))
    w
    (Proc_set.to_list p.Member.last_group);
  let payload = Wire.contents w in
  let crc = Crc32.string payload in
  let b = Bytes.create (String.length payload + 4) in
  Bytes.blit_string payload 0 b 0 (String.length payload);
  Bytes.set b (String.length payload)
    (Char.chr (Int32.to_int (Int32.shift_right_logical crc 24) land 0xff));
  Bytes.set b (String.length payload + 1)
    (Char.chr (Int32.to_int (Int32.shift_right_logical crc 16) land 0xff));
  Bytes.set b (String.length payload + 2)
    (Char.chr (Int32.to_int (Int32.shift_right_logical crc 8) land 0xff));
  Bytes.set b (String.length payload + 3)
    (Char.chr (Int32.to_int crc land 0xff));
  Bytes.unsafe_to_string b

let persistent_of_wire s =
  let len = String.length s in
  if len < 4 then None
  else begin
    let byte i = Int32.of_int (Char.code s.[i]) in
    let stored =
      Int32.logor
        (Int32.shift_left (byte (len - 4)) 24)
        (Int32.logor
           (Int32.shift_left (byte (len - 3)) 16)
           (Int32.logor (Int32.shift_left (byte (len - 2)) 8) (byte (len - 1))))
    in
    if not (Int32.equal stored (Crc32.digest s ~pos:0 ~len:(len - 4))) then
      None
    else
      match
        let r = Wire.reader ~pos:0 ~len:(len - 4) s in
        if Wire.r_string r <> record_magic then Wire.fail "bad record magic";
        let epoch = Wire.r_int r in
        let seq = Wire.r_int r in
        let group =
          Proc_set.of_list
            (Wire.r_list (fun r -> Proc_id.of_int (Wire.r_int r)) r)
        in
        if Wire.remaining r <> 0 then Wire.fail "trailing bytes";
        { Member.last_group_id = Group_id.v ~epoch ~seq; last_group = group }
      with
      | record -> Some record
      | exception Wire.Error _ -> None
      | exception Invalid_argument _ -> None
  end

let in_memory ?stats () = Storage.Store.in_memory ?stats ()

let on_disk ?stats ~dir () =
  Storage.Store.on_disk ?stats ~dir ~encode:wire_of_persistent
    ~decode:persistent_of_wire ()

let persist = Storage.Store.persist
let restore = Storage.Store.restore
