open Tasim

let next_decider ~group ~after ~n =
  if Proc_set.is_empty group then
    invalid_arg "Rotation.next_decider: empty group";
  match Proc_set.successor_in group after ~n with
  | Some p -> p
  | None ->
    (* group = {after}: the role stays *)
    if Proc_set.mem after group then after
    else invalid_arg "Rotation.next_decider: empty group"

let is_next_decider ~group ~after ~n p =
  Proc_id.equal p (next_decider ~group ~after ~n)

let cycle_length ~group ~d = Time.mul d (Proc_set.cardinal group)
