(* Pieces shared by the live and the simulated workloads: the
   benchmark's own application, growable sample buffers, the per-layer
   span accumulators and the result printer. *)

open Runtime

(* ------------------------------------------------------------------ *)
(* Application *)

(* An update carries the benchmark's sequence number (how a delivery is
   matched to its due time) and a seeded body of the workload's payload
   size. *)
type upd = { id : int; body : string }

(* The replicated state stays bounded however long the run: a delivery
   count and a hash folded in delivery order. Equal digests at every
   member mean every member applied the same updates in the same
   order, and the state a joiner receives is a few bytes, so rejoining
   never depends on how much history the group has. *)
type app = { count : int; digest : int }

let initial_app = { count = 0; digest = 0 }
let mix h x = (h * 0x100000001b3) lxor x land max_int

let apply a u =
  { count = a.count + 1; digest = mix (mix a.digest u.id) (Hashtbl.hash u.body) }

let payload : (upd, app) Codec.payload =
  {
    write_u =
      (fun w u ->
        Wire.int w u.id;
        Wire.string w u.body);
    read_u =
      (fun r ->
        let id = Wire.r_int r in
        let body = Wire.r_string r in
        { id; body });
    write_app =
      (fun w a ->
        Wire.int w a.count;
        Wire.int w a.digest);
    read_app =
      (fun r ->
        let count = Wire.r_int r in
        let digest = Wire.r_int r in
        { count; digest });
  }

(* A few seeded bodies, reused round-robin: the input depends on the
   seed only, and the generator allocates nothing per update. *)
let bodies ~seed ~size =
  let rng = Random.State.make [| seed; size |] in
  Array.init 16 (fun _ ->
      String.init size (fun _ -> Char.chr (Random.State.int rng 256)))

(* ------------------------------------------------------------------ *)
(* Growable buffers *)

module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 4096 0; len = 0 }

  let push t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (2 * t.len) 0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.a.(i)
  let set t i x = t.a.(i) <- x
  let length t = t.len
end

module Samples = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (2 * t.len) 0.0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let count t = t.len

  (* linear interpolation between closest ranks; 0 when empty *)
  let quantile t q =
    if t.len = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.len in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.len - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= t.len then s.(t.len - 1)
      else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))
    end

  let median t = quantile t 0.5
end

let median_of l =
  let s = Samples.create () in
  List.iter (Samples.add s) l;
  Samples.median s

(* ------------------------------------------------------------------ *)
(* Process measurements *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type gc_mark = { minor : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

let heap_top_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ------------------------------------------------------------------ *)
(* Layer spans, recorded around the closures the runtime accepts *)

module Trace = struct
  (* Wrappers are built only for a traced run and consult [on] on
     every call, so one traced run holds an untraced phase and a
     traced phase over the same cluster. *)
  let on = ref false

  (* a span's calls and summed microseconds, or a sample's count and
     summed values *)
  type acc = { mutable calls : int; mutable sum : float }

  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 64

  let acc name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
      let a = { calls = 0; sum = 0.0 } in
      Hashtbl.replace tbl name a;
      a

  let now_us () = Unix.gettimeofday () *. 1e6

  (* wall time inside every wrapped closure, outermost spans only *)
  let spans_us = ref 0.0

  (* time inside spans nested in an automaton step (persist) *)
  let child_us = ref 0.0

  let add a x =
    a.calls <- a.calls + 1;
    a.sum <- a.sum +. x

  (* mean per call; 0 when nothing was recorded *)
  let mean name =
    match Hashtbl.find_opt tbl name with
    | Some a when a.calls > 0 -> a.sum /. float_of_int a.calls
    | Some _ | None -> 0.0

  let calls name =
    match Hashtbl.find_opt tbl name with Some a -> a.calls | None -> 0

  let total name =
    match Hashtbl.find_opt tbl name with Some a -> a.sum | None -> 0.0

  let reset () =
    Hashtbl.reset tbl;
    spans_us := 0.0;
    child_us := 0.0

  (* Wrap an automaton: self time of [on_receive] by message kind (a
     nested persist is subtracted) and of [on_timer]. *)
  let automaton ~kind_of (a : ('s, 'm, 'o) Tasim.Engine.automaton) =
    let step name f =
      let c0 = !child_us in
      let t0 = now_us () in
      let r = f () in
      let dt = now_us () -. t0 in
      add (acc name) (dt -. (!child_us -. c0));
      spans_us := !spans_us +. dt;
      r
    in
    {
      a with
      Tasim.Engine.on_receive =
        (fun s ~clock ~src m ->
          if not !on then a.on_receive s ~clock ~src m
          else
            step ("member.step_us." ^ kind_of m) (fun () ->
                a.on_receive s ~clock ~src m));
      on_timer =
        (fun s ~clock ~key ->
          if not !on then a.on_timer s ~clock ~key
          else step "member.timer_us" (fun () -> a.on_timer s ~clock ~key));
    }

  (* A nested span (inside an automaton step). *)
  let nested name f =
    if not !on then f ()
    else begin
      let t0 = now_us () in
      let r = f () in
      let dt = now_us () -. t0 in
      add (acc name) dt;
      child_us := !child_us +. dt;
      r
    end

  (* An outermost span that is not an automaton step. *)
  let span name f =
    if not !on then f ()
    else begin
      let t0 = now_us () in
      let r = f () in
      let dt = now_us () -. t0 in
      add (acc name) dt;
      spans_us := !spans_us +. dt;
      r
    end
end

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

type outcome = {
  correct : bool;
  violations : string list;
  attempted : int;
  failed : int;
  metrics : metric list;  (** printed in the final JSON line *)
  notes : metric list;  (** printed, not part of the JSON *)
}

(* The commit the checkout was built from, read from [.git] without
   running git; "unknown" outside a git checkout. *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      Some (String.trim (input_line ic))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    let lp = String.length prefix in
    if String.length head > lp && String.sub head 0 lp = prefix then
      match read (".git/" ^ String.sub head lp (String.length head - lp)) with
      | Some rev -> rev
      | None -> "unknown"
    else head

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s = "\"" ^ String.escaped s ^ "\""

let print_outcome ~workload o =
  List.iter (fun v -> Printf.printf "violation: %s\n" v) o.violations;
  Printf.printf "%s: attempted %d, failed %d (failed_frac %.6f ratio)\n" workload
    o.attempted o.failed
    (if o.attempted = 0 then 0.0
     else float_of_int o.failed /. float_of_int o.attempted);
  List.iter
    (fun x -> Printf.printf "  %-36s %14.4f %s\n" x.name x.value x.unit_)
    (o.metrics @ o.notes);
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_float x.value) (json_string x.unit_))
         o.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed metrics
