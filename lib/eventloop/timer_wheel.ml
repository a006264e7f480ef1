type timer_id = int

type timer = {
  id : timer_id;
  expiry_tick : int;
  callback : unit -> unit;
  mutable cancelled : bool;
}

type t = {
  tick : int;
  wheel_size : int;
  buckets : timer list ref array; (* unordered; filtered at fire time *)
  by_id : (timer_id, timer) Hashtbl.t;
  mutable current_tick : int;
  mutable next_id : int;
  mutable pending : int;
  mutable earliest : int;
      (* min expiry tick over the pending timers, [max_int] when none;
         meaningful only while [earliest_known] *)
  mutable earliest_known : bool;
}

let create ?(wheel_size = 256) ~tick () =
  if tick <= 0 then invalid_arg "Timer_wheel.create: tick must be positive";
  {
    tick;
    wheel_size;
    buckets = Array.init wheel_size (fun _ -> ref []);
    by_id = Hashtbl.create 64;
    current_tick = 0;
    next_id = 0;
    pending = 0;
    earliest = max_int;
    earliest_known = true;
  }

let now t = t.current_tick * t.tick

let schedule t ~at callback =
  let expiry_tick =
    let raw = (at + t.tick - 1) / t.tick in
    if raw <= t.current_tick then t.current_tick + 1 else raw
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let timer = { id; expiry_tick; callback; cancelled = false } in
  let bucket = t.buckets.(expiry_tick mod t.wheel_size) in
  bucket := timer :: !bucket;
  Hashtbl.add t.by_id id timer;
  t.pending <- t.pending + 1;
  if expiry_tick < t.earliest then t.earliest <- expiry_tick;
  id

let cancel t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> false
  | Some timer ->
    if timer.cancelled then false
    else begin
      timer.cancelled <- true;
      Hashtbl.remove t.by_id id;
      t.pending <- t.pending - 1;
      if timer.expiry_tick = t.earliest then t.earliest_known <- false;
      (* purge the bucket now: under an arm/cancel/re-arm-every-cycle
         pattern, leaving cancelled timers in place until their expiry
         tick makes buckets accumulate garbage that every fire_bucket
         partition then has to scan. The timer may legitimately be
         absent (cancelled from a callback while sitting in the due
         list fire_bucket already detached); the [cancelled] flag
         covers that path. *)
      let bucket = t.buckets.(timer.expiry_tick mod t.wheel_size) in
      bucket := List.filter (fun other -> other != timer) !bucket;
      true
    end

let fire_bucket t tick =
  let bucket = t.buckets.(tick mod t.wheel_size) in
  let due, later =
    List.partition (fun timer -> timer.expiry_tick = tick) !bucket
  in
  bucket := later;
  (* fire in arming order: the bucket list is LIFO *)
  let due = List.rev due in
  let fired = ref 0 in
  let fire timer =
    if not timer.cancelled then begin
      Hashtbl.remove t.by_id timer.id;
      t.pending <- t.pending - 1;
      incr fired;
      timer.callback ()
    end
  in
  List.iter fire due;
  !fired

(* The earliest expiry tick, [max_int] when nothing is pending. The
   fold runs only after the earliest timer fired or was cancelled;
   arming keeps the minimum itself. *)
let earliest_tick t =
  if not t.earliest_known then begin
    t.earliest <-
      Hashtbl.fold
        (fun _ timer acc -> Stdlib.min acc timer.expiry_tick)
        t.by_id max_int;
    t.earliest_known <- true
  end;
  t.earliest

(* Jump from due tick to due tick: the ticks between them hold nothing
   that can fire, so a fine tick costs no walk over empty buckets. A
   callback may arm a timer at or before the target; it is clamped past
   the current tick, so the next lookup of the earliest finds it and it
   fires in this same advance, as a tick-by-tick walk would fire it. *)
let advance t ~to_ =
  let target_tick = to_ / t.tick in
  let rec go fired =
    if t.current_tick >= target_tick then fired
    else begin
      let next = earliest_tick t in
      if next > target_tick then begin
        t.current_tick <- target_tick;
        fired
      end
      else begin
        t.current_tick <- next;
        let fired = fired + fire_bucket t next in
        (* every timer at or below the current tick has fired *)
        t.earliest_known <- false;
        go fired
      end
    end
  in
  go 0

let pending t = t.pending

let resident t =
  Array.fold_left (fun acc bucket -> acc + List.length !bucket) 0 t.buckets

let next_expiry t =
  let earliest = earliest_tick t in
  if t.pending = 0 then None else Some (earliest * t.tick)
