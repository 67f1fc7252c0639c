(** Deterministic fault injection.

    A fault spec assigns probabilities to injection sites in the batch
    pipeline (disk-cache reads, writes and renames; payload corruption;
    worker exceptions; artificial slowness).  Whether a given site
    fires is a {e pure function} of [(seed, site, subject)] — an MD5
    hash, no global PRNG state — so a schedule is reproducible across
    runs and, crucially, independent of worker scheduling: the set of
    affected sources is identical at [--jobs 1] and [--jobs 8].  That
    is what makes the byte-identity invariant testable under faults.

    Spec grammar (comma-separated [key=value]):

    {v seed=INT read=P write=P rename=P corrupt=P worker=P slow=P slow_ms=INT
       net_write=P disconnect=P kill=P crash=P v}

    where [P] is a probability in [0..1].  Example:
    [--faults seed=42,read=0.3,corrupt=0.2,worker=0.1].

    The [net_write] and [disconnect] sites live in the {!Serve} wire
    layer: a firing [net_write] truncates a socket write mid-frame (a
    dropped/short write), a firing [disconnect] closes the connection
    mid-frame instead of completing it, and [slow] in that layer
    stalls [slow_ms] between the frame header and its payload (a slow
    client).  They let one spec drive both the disk-cache and the
    network fault schedules.  The wire sites act on the descriptor,
    not the transport: one schedule fires identically over Unix-domain
    and TCP ({!Endpoint}) connections, so the multi-host paths are
    testable with the same determinism as the local ones. *)

type t = {
  seed : int;
  read_p : float;  (** injected [Sys_error] on a disk-cache read attempt *)
  write_p : float;  (** injected [Sys_error] on a disk-cache write attempt *)
  rename_p : float;  (** injected [Sys_error] publishing a cache entry *)
  corrupt_p : float;  (** write a truncated/garbled payload instead *)
  worker_p : float;  (** raise {!Injected} in the worker for a source *)
  slow_p : float;  (** sleep [slow_ms] in the worker for a source *)
  slow_ms : int;
  net_write_p : float;
      (** truncate a {!Serve} frame write (short write, then EOF) *)
  disconnect_p : float;
      (** drop a {!Serve} connection mid-frame instead of finishing *)
  kill_p : float;
      (** daemon death {e between} frames: the response frame is never
          written at all and the connection is severed abruptly, as a
          SIGKILLed daemon's kernel would — the site that makes the
          {!Coordinator} re-dispatch path deterministically testable *)
}

exception Injected of string
(** Raised at a [worker] site; the payload names the site. *)

val none : t
(** All probabilities zero (seed 0). *)

val parse : string -> (t, string) result
(** Parse the spec grammar above; unknown keys and malformed values are
    errors. *)

val to_string : t -> string
(** Canonical spec rendering (omits zero-probability sites). *)

val roll : t -> site:string -> subject:string -> float
(** The deterministic uniform draw in [0, 1) for one site/subject
    pair.  [subject] should identify the unit of work (a source name, a
    cache key, a cache key with an attempt number…). *)

val fires : t -> p:float -> site:string -> subject:string -> bool
(** [roll < p]; false when [p = 0]. *)

(** {1 The crash site}

    [crash=P] is unlike every other site: when it fires the whole
    process dies by self-SIGKILL — no unwind, no finalizers, no
    buffered-IO flush, exactly what a power cut leaves behind.  It
    fires at seeded points {e inside} the cache publish sequence
    ({!Store.add}: between write, fsync and rename), which is what
    makes crash-consistent publish testable: a harness forks a child
    per publish, lets the seed pick where it dies, and asserts the
    {!Store.recover} scan finds nothing torn.  Because only
    one death schedule per process is meaningful, it is process-global
    state armed by {!set_crash} (or a [crash=P] key in {!parse}, using
    that spec's seed), not a field of [t]. *)

val set_crash : ?seed:int -> float -> unit
(** Arm (or, with [p <= 0], disarm) the process-global crash
    schedule.  [seed] defaults to [0]. *)

val maybe_crash : subject:string -> unit
(** Fire the [crash] site against the armed schedule (no-op when
    disarmed).  [subject] should be ["KEY@point"], naming the entry
    and the position inside the publish sequence; the decision is the
    same pure [(seed, site, subject)] draw as {!fires}. *)
