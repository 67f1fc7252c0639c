(** Fault-tolerant sweep dispatch across a daemon fleet.

    {!Client} gives one answer per request; a parameter sweep wants
    thousands of answers and must survive a daemon dying mid-chunk.
    The coordinator sits between: it splits a sweep deterministically
    into chunks, sends each chunk to a daemon as one [sweep] frame
    (the daemon schedules the bindings across its own worker pool and
    streams [binding=]-tagged answers back — see "The sweep verb" in
    [docs/PROTOCOL.md]), tracks completion {e per binding}, and when a
    shard is lost re-dispatches only its unfinished bindings to the
    surviving daemons.

    {2 Failure semantics}

    One {!Client} pool over every endpoint carries the chunks, one
    chunk in flight per daemon, each a {!Client.stream}; whether a
    daemon is dead is the pool's rule alone.  A chunk fails when its
    connection drops, when the per-chunk [deadline_ms] overruns, or
    when the daemon goes silent: after [heartbeat_ms] without a byte
    received (a frame still arriving is not silence) the client sends
    a [ping] on the same connection (the daemon answers pings inline
    even while a sweep streams), and a further silent [heartbeat_ms]
    means the daemon is gone.  The connection is closed — so a
    merely-slow daemon's late answers are dropped, not double-counted
    — and the chunk's unfinished bindings go back on the queue.  A
    chunk that fails before its first answer is first retried inside
    the pool, up to [retries] times, on another daemon when there is
    one.

    Every failure counts against its endpoint's circuit breaker, and
    two consecutive failures open it ([co_daemons_lost] counts these
    closed → open transitions).  The pool then sends nothing to that
    endpoint until its cooldown has passed (0.5 s, doubling per trip
    up to 8 s); the next chunk after that is its half-open probe.  A
    probe that succeeds closes the circuit, so a daemon brought back
    by the {!Supervisor} {e rejoins the running sweep}
    ([co_revived]); one that fails re-opens it for longer.  Dispatch
    stops once every binding is answered, or once no endpoint's
    circuit is closed or half-open: an all-dead fleet ends the run
    promptly.

    Every binding is answered {e exactly once}: results are recorded
    first-wins under one lock (late duplicates are counted, not
    stored), and the queue invariant — every unfinished binding is
    either queued or held by a running dispatcher, which re-queues
    its leftovers before taking more — means nothing is stranded
    short of whole-fleet death.  When every endpoint is lost, [run]
    returns with the survivors' partial results and {!stats}'
    [co_unfinished] naming the bindings that were never answered (the
    CLI turns that into exit 3 and a report).

    A {e request-level} error frame (an [auth] rejection, a
    [bad-request]) is not a shard loss: retrying elsewhere cannot
    help, so the chunk's remaining bindings are recorded as errors
    and the sweep moves on — a misconfigured secret fails fast
    instead of ping-ponging forever. *)

type binding = {
  bd_name : string;
      (** source name (the label models and reports carry); every
          binding with the same name must carry the same [bd_source] *)
  bd_source : string;  (** full source text *)
  bd_function : string;  (** mangled function name *)
  bd_params : (string * int) list;
}

type stats = {
  co_total : int;
  co_finished : int;  (** bindings answered (including analysis errors) *)
  co_redispatched : int;
      (** bindings re-queued after a shard loss (a binding lost twice
          counts twice) *)
  co_daemons_lost : int;
      (** closed → open circuit transitions
          ({!Client.breaker_stats}[.bk_tripped]): endpoints written
          off after consecutive failures (an endpoint lost, revived
          and lost again counts twice) *)
  co_duplicates : int;
      (** late answers dropped by first-wins recording *)
  co_revived : int;
      (** lost endpoints whose half-open probe succeeded, so they
          rejoined the sweep ({!Client.breaker_stats}[.bk_reopened]) *)
  co_unfinished : int list;
      (** binding indices never answered (whole-fleet death only),
          ascending *)
}

val run :
  ?chunk:int ->
  ?heartbeat_ms:int ->
  ?deadline_ms:int ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?auth_secret:string ->
  ?budget:Serve.budget_request ->
  ?on_progress:(finished:int -> total:int -> unit) ->
  Endpoint.t list ->
  binding list ->
  (Serve.response, string) result array * stats
(** Dispatch [bindings] across [endpoints] and return the results in
    input order: slot [i] holds binding [i]'s answer — [Ok response]
    for anything a daemon answered (analysis failures arrive as [Ok]
    with [rs_status = "error"], exactly as {!Client.request} returns
    them), [Error] for bindings the coordinator itself had to give up
    on (request-level rejection, or fleet death — see [co_unfinished]).

    [chunk] (default 64) bindings travel per frame; [heartbeat_ms]
    (default 1000) is the silence threshold described above ([0]
    disables liveness detection); [deadline_ms] (default 0 = off)
    additionally bounds one chunk end to end.  Either alone bounds
    every wait; with both off a dead daemon hangs its dispatcher
    forever.  Connects and writes are bounded by the nearer of the
    two.  [retries] (default 3) is the pool's: the extra attempts a
    chunk gets before its first answer.  [backoff_ms] (default 100)
    is the pause a dispatcher takes after a failed chunk.  With
    [auth_secret] every frame is sealed and every response must
    verify ({!Auth}); an unverifiable response is a shard loss, not
    data.  [budget] is the per-binding clamp shared by the whole
    sweep.  [on_progress] is called after each newly
    recorded binding, from whichever dispatcher thread recorded it.

    Raises [Invalid_argument] on an empty endpoint list, a
    non-positive [chunk], or a [bd_name] bound to two different
    source texts. *)
