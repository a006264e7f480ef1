type event =
  | Sent of { src : Proc_id.t; dst : Proc_id.t; kind : string }
  | Dropped of {
      src : Proc_id.t;
      dst : Proc_id.t;
      kind : string;
      reason : string;
    }
  | Delivered of { src : Proc_id.t; dst : Proc_id.t; kind : string }
  | Crashed of Proc_id.t
  | Recovered of Proc_id.t

type entry = { at : Time.t; event : event }

type t = {
  capacity : int;
  buf : entry Queue.t;
  mutable discarded : int;
}

let create ?(capacity = 100_000) () =
  { capacity; buf = Queue.create (); discarded = 0 }

let record t at event =
  if Queue.length t.buf >= t.capacity then begin
    ignore (Queue.pop t.buf);
    t.discarded <- t.discarded + 1
  end;
  Queue.add { at; event } t.buf

let length t = Queue.length t.buf
let dropped_entries t = t.discarded
let entries t = List.of_seq (Queue.to_seq t.buf)

let between t ~from ~until =
  List.filter
    (fun e -> Time.compare e.at from >= 0 && Time.compare e.at until <= 0)
    (entries t)

let count ?kind ?src ?dst t =
  let matches e =
    match e.event with
    | Sent s ->
      (match kind with None -> true | Some k -> String.equal k s.kind)
      && (match src with None -> true | Some p -> Proc_id.equal p s.src)
      && (match dst with None -> true | Some p -> Proc_id.equal p s.dst)
    | Dropped _ | Delivered _ | Crashed _ | Recovered _ -> false
  in
  List.length (List.filter matches (entries t))

let clear t =
  Queue.clear t.buf;
  t.discarded <- 0

let pp_event ppf = function
  | Sent { src; dst; kind } ->
    Fmt.pf ppf "%a -> %a  %s" Proc_id.pp src Proc_id.pp dst kind
  | Dropped { src; dst; kind; reason } ->
    Fmt.pf ppf "%a -x %a  %s (%s)" Proc_id.pp src Proc_id.pp dst kind reason
  | Delivered { src; dst; kind } ->
    Fmt.pf ppf "%a => %a  %s" Proc_id.pp src Proc_id.pp dst kind
  | Crashed p -> Fmt.pf ppf "%a CRASH" Proc_id.pp p
  | Recovered p -> Fmt.pf ppf "%a RECOVER" Proc_id.pp p

let pp_entry ppf e = Fmt.pf ppf "[%a] %a" Time.pp e.at pp_event e.event
