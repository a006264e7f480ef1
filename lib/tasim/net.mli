(** The asynchronous datagram service.

    Implements the communication model of the paper (Section 2): an
    unreliable datagram service with omission/performance failure
    semantics and a one-way time-out delay delta. A message is either
    dropped (omission failure), delivered within delta (timely), or
    delivered later than delta (performance failure — the message is
    "late" and fail-aware receivers must reject it).

    Beyond the stochastic model, the service supports targeted fault
    injection used by the experiments: network partitions (messages
    crossing partition boundaries are dropped), message filters
    (predicates that drop selected messages for a bounded time or a
    bounded number of matches — e.g. "drop the next decision message
    from p2 to p4"), and a timeliness graph (Delporte-Gallet et al.):
    per-directed-link delay/omission/lateness overrides layered over
    the global config and mutable at runtime, so scenarios can degrade
    individual links mid-run while the rest of the network stays
    timely. *)

type config = {
  delta : Time.t;  (** one-way time-out delay of the datagram service *)
  delay_min : Time.t;  (** minimum transmission delay *)
  delay_max : Time.t;  (** maximum timely delay; must be <= [delta] *)
  omission_prob : float;  (** probability a message is lost *)
  late_prob : float;
      (** probability a non-lost message suffers a performance failure *)
  late_delay_max : Time.t;
      (** maximum delay of a late message; must be > [delta] *)
}

val default_config : config
(** delta = 10ms, delays 1..8ms, no stochastic loss or lateness. *)

val validate_config : config -> (unit, string) result

type 'm t
(** A datagram service carrying messages of type ['m]. *)

val create : config -> Rng.t -> 'm t
val config : 'm t -> config

type fate =
  | Deliver_after of Time.t  (** transmission delay to apply *)
  | Dropped of string  (** reason, for traces and statistics *)

val fate : 'm t -> src:Proc_id.t -> dst:Proc_id.t -> 'm -> fate
(** Decide the fate of one datagram, consuming randomness. The
    partition check comes first (a partitioned datagram never consumes
    a bounded filter's [max_drops] budget), then filters, then — under
    the directed link's effective config, see {!set_link} — stochastic
    omission, then delay sampling. Selecting the link config draws no
    randomness: runs with no overrides are bit-identical to the
    single-global-config service. *)

(** {1 Per-link timeliness overrides} *)

val set_link :
  'm t ->
  src:Proc_id.t ->
  dst:Proc_id.t ->
  ?delay_min:Time.t ->
  ?delay_max:Time.t ->
  ?omission_prob:float ->
  ?late_prob:float ->
  ?late_delay_max:Time.t ->
  unit ->
  unit
(** Override the stochastic model of the directed link [src -> dst].
    Omitted fields keep the global config's value; [delta] is always
    the global one (it is the protocol's time-out bound, not a link
    property). The combined config must satisfy {!validate_config} or
    [Invalid_argument] is raised — an override can degrade a link, not
    break the model's invariants. Re-setting a link replaces its
    previous override wholesale. *)

val clear_link : 'm t -> src:Proc_id.t -> dst:Proc_id.t -> unit
(** Remove the override of one directed link; unknown links are
    ignored. *)

val clear_links : 'm t -> unit
(** Remove every link override (back to the uniform global config). *)

val link_config : 'm t -> src:Proc_id.t -> dst:Proc_id.t -> config
(** The effective config of the directed link: its override when
    installed, the global config otherwise. *)

val links_overridden : 'm t -> int
(** Number of directed links currently carrying an override. *)

(** {1 Fault injection} *)

val set_partition : 'm t -> Proc_set.t list -> unit
(** Install a partition: messages between processes not sharing a block
    are dropped. Processes absent from every block form implicit
    singleton blocks — they reach themselves and nobody else. Raises
    [Invalid_argument] when two blocks overlap (the membership would be
    ambiguous). *)

val heal : 'm t -> unit
(** Remove any partition. *)

val add_filter :
  'm t ->
  ?max_drops:int ->
  name:string ->
  (src:Proc_id.t -> dst:Proc_id.t -> 'm -> bool) ->
  unit
(** Drop every message matching the predicate. With [max_drops] the
    filter disarms after that many matches and is removed; a
    [max_drops] of 0 is never installed at all. Filters are checked in
    installation order. *)

val remove_filter : 'm t -> name:string -> unit
(** Remove every filter installed under [name]; unknown names are
    ignored. The uninstall hook behind bounded fault windows. *)

val clear_filters : 'm t -> unit

val active_filters : 'm t -> string list
(** Names of the installed, non-exhausted filters in consultation
    order. *)
