open Tasim

type fault = Torn_write | Lost_flush | Io_error

let fault_to_string = function
  | Torn_write -> "torn-write"
  | Lost_flush -> "lost-flush"
  | Io_error -> "io-error"

let fault_of_string = function
  | "torn-write" -> Some Torn_write
  | "lost-flush" -> Some Lost_flush
  | "io-error" -> Some Io_error
  | _ -> None

let pp_fault ppf f = Fmt.string ppf (fault_to_string f)
let persist_attempts = 3

type 'r backend =
  | Memory of {
      durable : (int, 'r) Hashtbl.t;
      cached : (int, 'r) Hashtbl.t;
          (* lost-flush writes: visible to this incarnation, gone
             after a machine crash (note_crash) *)
    }
  | Disk of {
      dir : string;
      encode : 'r -> string;
      decode : string -> 'r option;
      shadow : (int, string option) Hashtbl.t;
          (* per process: the last bytes known flushed, captured before
             the first lost-flush overwrite; an entry means the file
             may be ahead of the disk and note_crash must revert it *)
    }

type 'r t = {
  backend : 'r backend;
  stats : Stats.t;
  mutable fault_all : fault option;
  fault_per : (int, fault option) Hashtbl.t;
}

let create ?stats backend =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  { backend; stats; fault_all = None; fault_per = Hashtbl.create 4 }

let in_memory ?stats () =
  create ?stats (Memory { durable = Hashtbl.create 8; cached = Hashtbl.create 8 })

let on_disk ?stats ~dir ~encode ~decode () =
  create ?stats (Disk { dir; encode; decode; shadow = Hashtbl.create 8 })

let stats t = t.stats

(* store events are rare (a view install, a restart): the string
   counter API is cheap enough *)
let count t name = Stats.incr t.stats ("live:store:" ^ name)

let set_fault t ?proc f =
  match proc with
  | Some p -> Hashtbl.replace t.fault_per (Proc_id.to_int p) f
  | None ->
    t.fault_all <- f;
    Hashtbl.reset t.fault_per

let fault_of t i =
  match Hashtbl.find_opt t.fault_per i with Some f -> f | None -> t.fault_all

(* ------------------------------------------------------------------ *)
(* Disk plumbing *)

let file_of dir i = Filename.concat dir (Printf.sprintf "member-%d.tw" i)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let unlink_quietly path = try Sys.remove path with Sys_error _ -> ()

(* Directory fsync is what makes the rename itself durable; some
   filesystems refuse to open a directory read-only, so failure here
   is tolerated rather than treated as a failed persist. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Every record write starts here: open [tmp], write the first [len]
   bytes of [s], optionally fsync, close. [eio] fails the attempt
   after the open, as a failing disk would. Any failure closes the
   descriptor and removes [tmp] before re-raising, so nothing leaks. *)
let write_tmp ?(sync = false) ?(eio = false) tmp s ~len =
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  (match
     if eio then raise (Unix.Unix_error (Unix.EIO, "write", tmp));
     let off = ref 0 in
     while !off < len do
       off := !off + Unix.write_substring fd s !off (len - !off)
     done;
     if sync then Unix.fsync fd
   with
  | () -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    unlink_quietly tmp;
    raise e);
  try Unix.close fd
  with e ->
    unlink_quietly tmp;
    raise e

(* One record write: tmp, write, close, atomic rename. With [flush]
   (the default) the tmp is fsynced before the rename and the directory
   after it, so the record is durable once this returns; the previous
   record is never at risk. *)
let write_record ?(flush = true) ?eio dir path s =
  mkdir_p dir;
  let tmp = path ^ ".tmp" in
  write_tmp ~sync:flush ?eio tmp s ~len:(String.length s);
  (try Sys.rename tmp path
   with e ->
     unlink_quietly tmp;
     raise e);
  if flush then fsync_dir dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)

(* One write attempt that is durable once it returns; raises on
   failure. [eio] fails it as a failing disk would. *)
let write_durable t ~eio i r =
  match t.backend with
  | Memory m ->
    if eio then raise (Unix.Unix_error (Unix.EIO, "write", ""));
    Hashtbl.replace m.durable i r;
    Hashtbl.remove m.cached i
  | Disk d ->
    write_record ~eio d.dir (file_of d.dir i) (d.encode r);
    (* the file now matches the disk: nothing left to revert *)
    Hashtbl.remove d.shadow i

(* A write this incarnation reads back but that never reaches the
   disk: a machine crash (note_crash) reverts it. *)
let write_unflushed t i r =
  match t.backend with
  | Memory m -> Hashtbl.replace m.cached i r
  | Disk d ->
    let path = file_of d.dir i in
    (* capture the durable baseline before the file runs ahead of the
       disk; only the first capture matters, a durable write clears it *)
    if not (Hashtbl.mem d.shadow i) then
      Hashtbl.replace d.shadow i
        (match read_file path with
        | bytes -> Some bytes
        | exception (Sys_error _ | End_of_file) -> None);
    write_record ~flush:false d.dir path (d.encode r)

(* The write tears mid-way. In memory it lands nowhere; on disk half
   the record reaches the tmp file, then the writer "dies": no fsync,
   no rename — the torn tmp is left behind exactly as a crashed writer
   would leave it. Either way the previous record survives. *)
let write_torn t i r =
  match t.backend with
  | Memory _ -> ()
  | Disk d -> (
    try
      mkdir_p d.dir;
      let s = d.encode r in
      write_tmp (file_of d.dir i ^ ".tmp") s ~len:(String.length s / 2)
    with Sys_error _ | Unix.Unix_error _ -> ())

let persist t ~self r =
  let i = Proc_id.to_int self in
  let fault = fault_of t i in
  Option.iter (fun f -> count t ("fault:" ^ fault_to_string f)) fault;
  match fault with
  | Some Torn_write ->
    count t "persist-failed";
    write_torn t i r
  | Some Lost_flush -> (
    match write_unflushed t i r with
    | () -> count t "persist"
    | exception (Sys_error _ | Unix.Unix_error _) -> count t "persist-failed")
  | (Some Io_error | None) as f ->
    let eio = f = Some Io_error in
    let rec attempt k =
      match write_durable t ~eio i r with
      | () -> count t "persist"
      | exception (Sys_error _ | Unix.Unix_error _) ->
        if k < persist_attempts then begin
          count t "retry";
          attempt (k + 1)
        end
        else
          (* degrade: the process keeps running on its in-memory
             state; the previous durable record is intact for the
             next restart *)
          count t "persist-failed"
    in
    attempt 1

let note_crash t ~self =
  let i = Proc_id.to_int self in
  match t.backend with
  | Memory m -> Hashtbl.remove m.cached i
  | Disk d -> (
    match Hashtbl.find_opt d.shadow i with
    | None -> ()
    | Some baseline -> (
      Hashtbl.remove d.shadow i;
      let path = file_of d.dir i in
      match baseline with
      | Some bytes -> (
        try write_record d.dir path bytes
        with Sys_error _ | Unix.Unix_error _ -> ())
      | None -> unlink_quietly path))

type 'r found = Record of 'r | Missing | Corrupt

let restore t ~self =
  let i = Proc_id.to_int self in
  let found =
    match t.backend with
    | Memory m -> (
      match Hashtbl.find_opt m.cached i with
      | Some r -> Record r
      | None -> (
        match Hashtbl.find_opt m.durable i with
        | Some r -> Record r
        | None -> Missing))
    | Disk d -> (
      let path = file_of d.dir i in
      (* a leftover tmp is the debris of a writer that died between
         open and rename; it never became the record, so discard it *)
      let tmp = path ^ ".tmp" in
      if Sys.file_exists tmp then begin
        count t "tmp-discarded";
        unlink_quietly tmp
      end;
      if not (Sys.file_exists path) then Missing
      else
        (* a directory squatting on the path, a permission error, a
           file shrinking under us: all amnesiac, never an exception *)
        match read_file path with
        | exception (Sys_error _ | End_of_file) -> Corrupt
        | bytes -> (
          match d.decode bytes with Some r -> Record r | None -> Corrupt))
  in
  match found with
  | Record r ->
    count t "restore";
    Some r
  | Missing ->
    count t "restore-missing";
    None
  | Corrupt ->
    count t "restore-corrupt";
    None

let record_path t ~self =
  match t.backend with
  | Memory _ -> None
  | Disk d -> Some (file_of d.dir (Proc_id.to_int self))
