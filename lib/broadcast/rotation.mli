(** Decider rotation.

    "In order to distribute the processing load evenly among all group
    members and to detect process or communication failures fast, the
    role of the decider is rotated among group members. All group
    members are cyclically ordered. A group member d relinquishes its
    decider role by sending a decision message in at most D time units,
    and the next group member in the cyclical order assumes the decider
    role on receiving this decision message." (paper, Section 2) *)

open Tasim

val next_decider : group:Proc_set.t -> after:Proc_id.t -> n:int -> Proc_id.t
(** The group member that assumes the decider role once [after] has
    sent its decision. [after] need not itself be a group member (it
    may just have been excluded). Raises [Invalid_argument] on an empty
    group. *)

val is_next_decider :
  group:Proc_set.t -> after:Proc_id.t -> n:int -> Proc_id.t -> bool

val cycle_length : group:Proc_set.t -> d:Time.t -> Time.t
(** Time for the decider role to make a full turn: |group| * D. *)
