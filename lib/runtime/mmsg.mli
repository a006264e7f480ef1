(** Bindings to the batched-UDP syscalls ([sendmmsg]/[recvmmsg]).

    The stubs are compiled everywhere but only do real work on Linux;
    elsewhere they report [`Unsupported] and {!Transport} falls back
    to its portable [sendto]/[recvfrom] loop. The [TW_MMSG]
    environment variable (["0"], ["off"] or ["false"]) forces the
    fallback even where the syscalls exist — used by CI to exercise
    both paths on the same machine. *)

val supported : bool
(** Compile-time support (Linux). Runtime [ENOSYS] is still possible
    on exotic kernels and surfaces as [`Unsupported] from the calls
    below; the transport downgrades itself on first sight of it. *)

val default_enabled : unit -> bool
(** [supported], unless [TW_MMSG] is set to ["0"], ["off"] or
    ["false"] — the default batching mode for new transports. *)

val slots : int
(** Max datagrams per syscall; longer batches take multiple calls. *)

type error = [ `Would_block | `Refused | `Intr | `Unsupported | `Error ]

val send_batch :
  Unix.file_descr ->
  buf:Bytes.t ->
  meta:int array ->
  from:int ->
  count:int ->
  (int, error) result
(** [send_batch fd ~buf ~meta ~from ~count] sends messages
    [from, min (from + slots, count)) of the batch in one syscall.
    [buf] holds the encoded frames back to back; [meta] is laid out
    as [| off; len; port; ... |] per message, destinations all
    loopback. [Ok n] is the number actually sent (possibly short);
    an [Error _] means nothing was sent by this call. *)

val recv_batch :
  Unix.file_descr ->
  ring:Bytes.t ->
  slot:int ->
  lens:int array ->
  vlen:int ->
  (int, error) result
(** [recv_batch fd ~ring ~slot ~lens ~vlen] receives up to [vlen]
    datagrams in one syscall; datagram [i] lands at [ring] offset
    [i * slot] with its length in [lens.(i)]. [slot] must be at least
    the largest possible datagram (65507 for UDP), so frames are
    never truncated. *)
