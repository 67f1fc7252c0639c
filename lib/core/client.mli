(** The daemon client: pipelined connections, a connection pool over
    many endpoints, streamed answers and fan-out sweeps.

    One {!t} fronts N daemons (any mix of [unix:] and [tcp:]
    endpoints).  Each endpoint gets one pipelined connection, opened
    lazily and reopened transparently after failures: requests are
    tagged with [id=] and may complete out of order on the wire
    ({!Serve} echoes the tag), so up to [max_inflight] requests ride
    one connection concurrently.  Dispatch is round-robin, skipping
    endpoints whose circuit is open (see below) and preferring
    connections with pipeline room; a due half-open probe is admitted
    ahead of the rotation, so a revived endpoint rejoins even while
    its healthy peers could absorb the load.

    A connection's one reader thread queues each frame on its
    request's slot and wakes the waiters on every frame, on the
    connection's death and on every 50 ms socket-timeout tick: a
    caller blocks until its answer arrives instead of polling, and
    re-checks its deadline and heartbeat at least once per tick.

    {2 Liveness}

    Any byte received is a sign of life, so a frame still arriving is
    not silence.  With a [heartbeat_ms], an exchange pings the daemon
    on the same connection after that much silence (the daemon answers
    pings inline), and a second silent interval kills the connection.
    [deadline_ms] bounds the whole exchange, from waiting for pipeline
    room to its last frame.

    {2 Failure semantics}

    Each endpoint carries a {e circuit breaker}
    (closed / open / half-open).  A transport failure — connect
    refused, a dead or desynced connection, a request deadline
    overrun — counts against the endpoint; consecutive failures open
    its circuit, and dispatch then {e skips} the endpoint instead of
    retrying into it.  Once the cooldown (doubling per consecutive
    trip) elapses, exactly one request is admitted as the half-open
    probe; its success closes the circuit — a daemon revived by the
    {!Supervisor} rejoins dispatch, counted in
    {!breaker_stats}[.bk_reopened] — while failure re-opens it with a
    longer cooldown.  Two consecutive failures open a closed circuit
    (counted in [bk_tripped]); the first cooldown is 0.5 s, and it
    doubles per trip up to 8 s.  For {e idempotent} requests ([ping],
    [stats], [health], [analyze], [eval]: all side-effect-free on the
    daemon), a failure also retries on another endpoint (never the one
    that just failed, when the pool has more than one), up to
    [retries] extra attempts.  [shutdown] is not idempotent and is
    {e never} retried: if its connection dies before the
    acknowledgement arrives, the caller gets the transport error and
    must decide for itself.  A shed connection (the untagged
    [overloaded] frame a saturated daemon sends at accept) is a
    transport failure like any other.  A stream is retried only before
    its first frame.

    A deadline overrun or a heartbeat timeout closes its connection:
    whether the daemon is wedged or merely slow cannot be
    distinguished, and the other in-flight requests on that connection
    fail fast (and are retried elsewhere when idempotent) instead of
    queueing behind a corpse.  A request whose deadline passes while it
    still waits for pipeline room was never sent, so it fails alone:
    its connection stays open, its endpoint's breaker is not touched,
    and it is not retried.  A request still waiting for room when its
    connection dies was never sent either: the death counts once, for
    the requests on the wire, and the waiting request is retried like
    any other. *)

type t

val create :
  ?io_timeout_ms:int ->
  ?max_inflight:int ->
  ?retries:int ->
  ?auth_secret:string ->
  Endpoint.t list ->
  t
(** A pool over the given endpoints (at least one; raises
    [Invalid_argument] on an empty list).  [io_timeout_ms] (default
    30 000) bounds connects and socket writes, and is the default
    per-request deadline; [0] disables both.  [max_inflight] (default
    8) bounds the pipeline depth per connection.  [retries] (default
    2) is the number of {e extra} attempts an idempotent request gets
    after a transport failure.  With [auth_secret] every request is
    sealed with an [auth=] HMAC ({!Auth}) and every response must
    verify — an unsealed or forged response kills the connection (the
    peer is not the daemon this pool was configured for).  No
    connection is opened until the first request needs it. *)

type breaker_stats = {
  bk_closed : int;  (** endpoints passing traffic *)
  bk_open : int;  (** endpoints being skipped (cooling down) *)
  bk_half_open : int;  (** endpoints with a probe in flight *)
  bk_tripped : int;
      (** cumulative closed → open transitions: endpoints written off
          after consecutive failures (a failed half-open probe re-opens
          a circuit without counting here) *)
  bk_reopened : int;
      (** cumulative half-open → closed transitions: dead endpoints
          that came back and rejoined dispatch *)
}

val breaker_stats : t -> breaker_stats
(** Live circuit-breaker counters for the pool. *)

val request :
  ?deadline_ms:int -> t -> Serve.request -> (Serve.response, string) result
(** One request through the pool: its first response frame.
    [deadline_ms] (default [io_timeout_ms]) bounds the wait for this
    response; an overrun is a transport error (and closes the
    connection once the request is on the wire — see above).  [Error] means no daemon could be reached
    within the retry budget; server-side failures arrive as [Ok]
    responses with [rs_status = "error"].  [Serve.Sweep] and
    [Serve.Reanalyze] are refused with an [Error]: their responses
    stream — use {!stream} (or {!Coordinator} for sweeps). *)

val stream :
  ?deadline_ms:int ->
  ?heartbeat_ms:int ->
  t ->
  Serve.request ->
  (Serve.response -> [ `More | `Done ]) ->
  (unit, string) result
(** One request whose answer may be many frames (a [sweep] chunk, a
    [reanalyze]).  [on_frame] runs on the calling thread for each
    response frame tagged with this request's id, in arrival order,
    until it returns [`Done]; frames that arrive after that are
    dropped.  [deadline_ms] (default [io_timeout_ms], [0] = none)
    bounds the whole exchange; [heartbeat_ms] (default [0] = off)
    enables the silence rule above.  [Error] is a transport failure
    (the frames before it were delivered); an exception raised by
    [on_frame] ends the exchange and propagates.  Retries follow
    {!request}'s rules, but only before the first frame. *)

val sweep :
  ?jobs:int ->
  ?deadline_ms:int ->
  t ->
  Serve.request list ->
  (Serve.response, string) result list
(** Fan a batch of requests across the pool and return the results
    {e in input order} (the merge is positional, whatever order the
    wire completions arrive in).  [jobs] (default
    [endpoints × max_inflight]) bounds concurrent in-flight requests;
    each failure is confined to its own slot in the result list. *)

val close : t -> unit
(** Close every connection and join their reader threads.
    Idempotent; in-flight requests fail with a transport error. *)

val with_pool :
  ?io_timeout_ms:int ->
  ?max_inflight:int ->
  ?retries:int ->
  ?auth_secret:string ->
  Endpoint.t list ->
  (t -> 'a) ->
  'a
(** [create] / run / [close], exception-safe. *)

val with_endpoint :
  ?io_timeout_ms:int -> Endpoint.t -> (t -> 'a) -> 'a
(** {!with_pool} over a single endpoint — the one-shot convenience:
    [with_endpoint e (fun c -> request c Ping)].  Re-exported as
    {!Mira.with_endpoint} so library users never touch the frame
    codec. *)

val wait_ready : ?timeout_s:float -> ?auth_secret:string -> Endpoint.t -> bool
(** Poll connect+ping+close (each bounded by 1 s, 20 ms apart) until
    a daemon answers [ok] at [ep] (for scripts and tests that just
    started one); [false] on timeout (default 5 s).  [auth_secret] is
    required to probe a secret-bearing [tcp:] daemon (the
    unauthenticated ping would be rejected). *)

type health = Ready | Starting | Draining | Unreachable

val probe : ?auth_secret:string -> timeout_ms:int -> Endpoint.t -> health
(** One readiness probe, {!Supervisor}'s: connect (bounded, like the exchange, by [timeout_ms]), send
    [health] — sealed with [auth_secret] when given, which a
    secret-bearing [tcp:] daemon requires — classify the answer's
    [state], close.  A daemon that answers without a [state] field (an
    error frame from a daemon older than the verb) counts as [Ready]:
    alive, just old.  No answer at all is [Unreachable]. *)

val idempotent : Serve.request -> bool
(** Whether the pool may transparently retry this request after a
    transport failure ([false] for [Shutdown] and the session verbs
    [Watch], [Reanalyze] and [Forget]). *)
