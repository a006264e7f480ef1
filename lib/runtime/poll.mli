(** poll(2) for the cluster loop.

    Replaces [Unix.select], whose [fd_set] caps descriptor values at
    FD_SETSIZE (1024) — too small for many-socket multi-domain runs.
    Readiness covers error/hangup too, so a dead socket wakes the
    loop and the subsequent read surfaces the condition (the same
    contract select gave us). The blocking wait releases the OCaml
    runtime lock so other domains keep running. *)

type error = [ `Intr | `Error ]

val wait :
  fds:Unix.file_descr array ->
  revents:int array ->
  timeout_us:int ->
  (int, error) result
(** POLLIN-polls [fds]; sets [revents.(i)] to 1 when [fds.(i)] is
    readable (or errored/hung up), 0 otherwise, and returns the ready
    count. [revents] must be at least as long as [fds]. A [timeout_us]
    of 0 returns immediately; there is no infinite wait (callers
    always have a deadline). On Linux the wait is [ppoll(2)] and keeps
    the microseconds; elsewhere it is [poll(2)] with the timeout
    rounded up to whole milliseconds. Either way the wait is never
    shorter than [timeout_us]. *)

val us_of_span : float -> int
(** Seconds → microseconds for [timeout_us], rounding up so a
    positive sub-microsecond timeout still sleeps (1 µs) rather than
    busy-spinning. Zero and negative spans are zero. *)
