(** A select-shaped interface over poll(2).

    [Unix.select] cannot watch a descriptor numbered >= FD_SETSIZE
    (1024 on Linux) — writing it into an [fd_set] is undefined
    behaviour — so the event-loop server, which holds thousands of
    sockets, goes through this module instead.  Unix-only (the stub passes the descriptor's
    integer value straight to [poll]). *)

val rlimit_nofile : unit -> int
(** The soft RLIMIT_NOFILE: how many descriptors this process may
    hold.  Connection-scale benchmarks and tests size themselves (or
    skip) from this. *)

val wait :
  ?read:Unix.file_descr list ->
  ?write:Unix.file_descr list ->
  timeout_ms:int ->
  unit ->
  Unix.file_descr list * Unix.file_descr list
(** [wait ~read ~write ~timeout_ms ()] blocks until a watched
    descriptor is ready or the timeout elapses, and returns the
    (ready-to-read, ready-to-write) descriptors.  A descriptor may
    appear in both interest lists.  [timeout_ms < 0] waits forever;
    [timeout_ms = 0] polls.  Error/hangup conditions are reported
    under whichever interest was registered for that descriptor, so
    the owner sees them via its next read/write syscall.  Returns
    empty lists when interrupted by a signal — recompute deadlines and
    call again. *)
