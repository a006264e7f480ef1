open Tasim

type ('s, 'm, 'obs) t = {
  clock : Clock.t;
  nodes : ('s, 'm, 'obs) Node.t list;
}

let create ~clock ~nodes = { clock; nodes }
let nodes t = t.nodes

let node t proc =
  List.find (fun n -> Proc_id.equal (Node.self n) proc) t.nodes

let start t = List.iter Node.start t.nodes

(* A node may report a deadline at or before [now] — a wheel expiry on
   the current tick boundary, or a clock monotonization plateau — and
   the poll that follows need not retire it. A raw [max 0] timeout
   then degrades the loop into a zero-timeout busy-spin: select
   returns instantly, poll does nothing, repeat at full CPU. The
   timeout is therefore a function of whether the last poll pass made
   progress: after a productive pass an overdue deadline legitimately
   wants an immediate re-poll; after a barren one it cannot be
   serviced until real time advances, so sleep a small floor. *)
let timeout_floor = Time.of_ms 1

let select_timeout ~progressed ~now ~next =
  let span = Time.sub next now in
  if Time.compare span Time.zero > 0 then Time.to_sec_f span
  else if progressed then 0.0
  else Time.to_sec_f timeout_floor

let run_until t ~deadline ?(poll_cap = Time.of_ms 100) pred =
  let met = ref false in
  let give_up = ref false in
  while (not !met) && not !give_up do
    let now = Clock.now t.clock in
    let progress =
      List.fold_left (fun acc n -> acc + Node.poll n ~now) 0 t.nodes
    in
    if pred () then met := true
    else if Time.compare now deadline >= 0 then give_up := true
    else begin
      let next =
        List.fold_left
          (fun acc n ->
            match Node.next_deadline n with
            | Some d -> Time.min acc d
            | None -> acc)
          (Time.add now poll_cap) t.nodes
      in
      let next = Time.min next deadline in
      (* the pass and the predicate took time: sleep from the clock as
         it reads now, not as it read when the pass began. A deadline
         that fell due during the pass is one the next pass retires,
         so it re-polls at once rather than sleeping the floor. *)
      let timeout =
        select_timeout
          ~progressed:(progress > 0 || Time.compare next now > 0)
          ~now:(Clock.now t.clock) ~next
      in
      (* poll(2), not select: no FD_SETSIZE cap on descriptor values,
         which a many-socket multi-domain process blows through. The
         wait is in microseconds, so the loop wakes when the deadline
         is due rather than on the next whole millisecond. *)
      let live =
        Array.of_list
          (List.filter_map
             (fun n -> Option.map (fun fd -> (fd, n)) (Node.fd n))
             t.nodes)
      in
      let fds = Array.map fst live in
      let revents = Array.make (Array.length live) 0 in
      match Poll.wait ~fds ~revents ~timeout_us:(Poll.us_of_span timeout) with
      | Error (`Intr | `Error) -> ()
      | Ok _ready ->
        Array.iteri
          (fun i r -> if r <> 0 then Node.recv_ready (snd live.(i)))
          revents
    end
  done;
  !met

let run_for t ~span =
  let deadline = Time.add (Clock.now t.clock) span in
  ignore (run_until t ~deadline (fun () -> false))

(* ------------------------------------------------------------------ *)
(* Multicore sharding *)

module Sharded = struct
  let recommended () = Domain.recommended_domain_count ()

  let run ~shards f =
    if shards <= 0 then invalid_arg "Cluster.Sharded.run: shards must be > 0";
    if shards = 1 then [ f ~shard:0 ]
    else begin
      let domains =
        List.init shards (fun shard -> Domain.spawn (fun () -> f ~shard))
      in
      (* join everything before re-raising, so no domain is leaked
         when one shard fails *)
      let results =
        List.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains
      in
      List.map (function Ok v -> v | Error e -> raise e) results
    end
end
