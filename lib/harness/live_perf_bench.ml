open Tasim
open Broadcast
open Timewheel
open Runtime

(* ------------------------------------------------------------------ *)
(* Flood: raw transport throughput and syscall efficiency *)

type flood_result = {
  fl_n : int;
  fl_batched : bool;
  fl_wall_seconds : float;
  fl_sent : int;
  fl_received : int;
  fl_frames_per_sec : float;
  fl_syscalls : int;
  fl_syscalls_per_frame : float;
}

(* minimal frame: sender id + sequence number — small enough that the
   syscall, not the codec, dominates, which is what this measures *)
let flood_encode ~sender (m : int) w =
  Wire.reset w;
  Wire.int w (Proc_id.to_int sender);
  Wire.int w m;
  Wire.pos w

let flood_decode buf ~pos ~len =
  let r = Wire.reader_bytes ~pos ~len buf in
  let src = Wire.r_int r in
  let m = Wire.r_int r in
  Ok (Proc_id.of_int src, m)

(* modest burst so a receiver's kernel buffer (a few hundred datagrams
   on default rmem) never overflows between drains: the measurement is
   syscall efficiency, not loss behaviour *)
let flood_burst = 64

let flood ?(n = 4) ?(seconds = 1.0) ?(base_port = 49400) ?batching () =
  let stats = Stats.create () in
  let mk self =
    Transport.create ~encode_to:flood_encode ~decode:flood_decode ?batching
      ~self ~n
      ~port_of:(fun p -> base_port + Proc_id.to_int p)
      ~stats ()
  in
  let transports = List.map mk (Proc_id.all ~n) in
  Fun.protect ~finally:(fun () -> List.iter Transport.close transports)
  @@ fun () ->
  let sender = List.hd transports in
  let receivers = List.tl transports in
  let handler ~src:_ (_ : int) = () in
  let drain_all () =
    List.iter (fun t -> ignore (Transport.drain t ~handler)) receivers
  in
  let seq = ref 0 in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  while Unix.gettimeofday () < deadline do
    for _ = 1 to flood_burst do
      Transport.broadcast sender !seq;
      incr seq
    done;
    Transport.flush sender;
    drain_all ()
  done;
  (* one last sweep for frames still queued in the kernel *)
  Unix.sleepf 0.01;
  drain_all ();
  let wall = Unix.gettimeofday () -. t0 in
  let sent = Stats.count stats "live:sent" in
  let received = Stats.count stats "live:recv" in
  let syscalls =
    Stats.count stats "live:syscall:sendto"
    + Stats.count stats "live:syscall:recvfrom"
    + Stats.count stats "live:syscall:sendmmsg"
    + Stats.count stats "live:syscall:recvmmsg"
  in
  let moved = sent + received in
  {
    fl_n = n;
    fl_batched = Transport.batched sender;
    fl_wall_seconds = wall;
    fl_sent = sent;
    fl_received = received;
    fl_frames_per_sec = float_of_int received /. wall;
    fl_syscalls = syscalls;
    fl_syscalls_per_frame =
      (if moved = 0 then 0.0 else float_of_int syscalls /. float_of_int moved);
  }

(* ------------------------------------------------------------------ *)
(* Cluster: full-stack groups under load, optionally sharded across
   domains *)

type cluster_result = {
  cl_n : int; (* members per shard *)
  cl_shards : int;
  cl_batched : bool;
  cl_formed : bool; (* every shard agreed on its full view *)
  cl_wall_seconds : float; (* slowest shard's steady window *)
  cl_frames : int; (* datagrams received across shards, steady window *)
  cl_frames_per_sec : float; (* aggregate across shards *)
  cl_submits : int;
  cl_deliveries : int;
  cl_false_suspicions : int; (* views installed after formation (faultless) *)
  cl_timer_fires : int;
  cl_timer_late_us : float; (* mean per fire *)
  cl_node_words : int list; (* per shard *)
}

let form_timeout = Time.of_sec 30

(* keep a fixed number of updates in flight: enough to exercise the
   pipeline, few enough that delivery latency is queue-free *)
let inflight_target = 2

type shard_outcome = {
  sh_formed : bool;
  sh_wall : float;
  sh_frames : int;
  sh_submits : int;
  sh_deliveries : int;
  sh_false_suspicions : int;
  sh_timer_fires : int;
  sh_timer_late_us : int; (* summed *)
  sh_node_words : int;
  sh_batched : bool;
}

let run_shard ~n ~seconds ~base_port ?batching ~shard () =
  let cfg = Live.config ~n ~base_port:(base_port + (shard * 64)) ?batching () in
  (* payload -> members yet to deliver it *)
  let pending = Hashtbl.create 16 in
  let deliveries = ref 0 in
  let after_formation = ref false in
  let views_after_formation = Hashtbl.create 4 in
  let on_obs _proc _at = function
    | Full_stack.Member_obs (Member.Delivered { proposal; _ }) -> (
      incr deliveries;
      let payload = proposal.Proposal.payload in
      match Hashtbl.find_opt pending payload with
      | Some 1 -> Hashtbl.remove pending payload
      | Some k -> Hashtbl.replace pending payload (k - 1)
      | None -> ())
    | Full_stack.Member_obs (Member.View_installed { group_id; _ })
      when !after_formation ->
      Hashtbl.replace views_after_formation group_id ()
    | _ -> ()
  in
  let clock, cluster = Live.in_process cfg ~on_obs () in
  Fun.protect ~finally:(fun () -> List.iter Node.kill (Cluster.nodes cluster))
  @@ fun () ->
  Cluster.start cluster;
  let full = Proc_set.full ~n in
  let formed () =
    match Live.agreed_view cluster with
    | Some (group, _) -> Proc_set.equal group full
    | None -> false
  in
  let sh_formed =
    Cluster.run_until cluster
      ~deadline:(Time.add (Clock.now clock) form_timeout)
      formed
  in
  let batched =
    Transport.batched (Node.transport (List.hd (Cluster.nodes cluster)))
  in
  let total name =
    List.fold_left
      (fun acc node -> acc + Stats.count (Node.stats node) name)
      0 (Cluster.nodes cluster)
  in
  let recv_total () = total "live:recv" in
  let fires_total () = total "live:sched:timer-fires" in
  let late_total () = total "live:sched:timer-late-us" in
  if not sh_formed then
    {
      sh_formed = false;
      sh_wall = 0.0;
      sh_frames = 0;
      sh_submits = 0;
      sh_deliveries = 0;
      sh_false_suspicions = 0;
      sh_timer_fires = 0;
      sh_timer_late_us = 0;
      sh_node_words = 0;
      sh_batched = batched;
    }
  else begin
    after_formation := true;
    let frames_at_formation = recv_total () in
    let fires_at_formation = fires_total () in
    let late_at_formation = late_total () in
    let submits = ref 0 in
    let nodes = Array.of_list (Cluster.nodes cluster) in
    let submit_one () =
      let payload = Printf.sprintf "s%d-u%d" shard !submits in
      Hashtbl.replace pending payload n;
      Live.submit nodes.(!submits mod n) ~semantics:Semantics.total_strong
        payload;
      incr submits
    in
    let t0 = Unix.gettimeofday () in
    let wall_deadline = t0 +. seconds in
    let deadline = Time.add (Clock.now clock) (Time.of_sec 120) in
    let step () =
      if Unix.gettimeofday () >= wall_deadline then
        (* stop submitting, run on until everything in flight lands *)
        Hashtbl.length pending = 0
      else begin
        while Hashtbl.length pending < inflight_target do
          submit_one ()
        done;
        false
      end
    in
    ignore (Cluster.run_until cluster ~deadline ~poll_cap:(Time.of_ms 10) step);
    let wall = Unix.gettimeofday () -. t0 in
    {
      sh_formed = true;
      sh_wall = wall;
      sh_frames = recv_total () - frames_at_formation;
      sh_submits = !submits;
      sh_deliveries = !deliveries;
      sh_false_suspicions = Hashtbl.length views_after_formation;
      sh_timer_fires = fires_total () - fires_at_formation;
      sh_timer_late_us = late_total () - late_at_formation;
      sh_node_words = Obj.reachable_words (Obj.repr (Cluster.nodes cluster));
      sh_batched = batched;
    }
  end

let cluster ?(n = 5) ?(shards = 1) ?(seconds = 2.0) ?(base_port = 49600)
    ?batching () =
  let outcomes =
    Cluster.Sharded.run ~shards (fun ~shard ->
        run_shard ~n ~seconds ~base_port ?batching ~shard ())
  in
  let wall = List.fold_left (fun acc o -> Float.max acc o.sh_wall) 0.0 outcomes in
  let frames = List.fold_left (fun acc o -> acc + o.sh_frames) 0 outcomes in
  let fires =
    List.fold_left (fun acc o -> acc + o.sh_timer_fires) 0 outcomes
  in
  let late =
    List.fold_left (fun acc o -> acc + o.sh_timer_late_us) 0 outcomes
  in
  {
    cl_n = n;
    cl_shards = shards;
    cl_batched = List.for_all (fun o -> o.sh_batched) outcomes;
    cl_formed = List.for_all (fun o -> o.sh_formed) outcomes;
    cl_wall_seconds = wall;
    cl_frames = frames;
    cl_frames_per_sec =
      (if wall > 0.0 then float_of_int frames /. wall else 0.0);
    cl_submits = List.fold_left (fun acc o -> acc + o.sh_submits) 0 outcomes;
    cl_deliveries =
      List.fold_left (fun acc o -> acc + o.sh_deliveries) 0 outcomes;
    cl_false_suspicions =
      List.fold_left (fun acc o -> acc + o.sh_false_suspicions) 0 outcomes;
    cl_timer_fires = fires;
    cl_timer_late_us =
      (if fires > 0 then float_of_int late /. float_of_int fires else 0.0);
    cl_node_words = List.map (fun o -> o.sh_node_words) outcomes;
  }
