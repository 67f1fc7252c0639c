(** [mira supervise]: the self-healing fleet supervisor.

    One supervisor process owns a fleet of [mira serve] children: it
    forks/execs each configured child, watches {e liveness} (process
    exit, reaped with [waitpid]) and {e readiness} (the [health] wire
    verb — see {!Serve.request} and [docs/PROTOCOL.md]), and restarts
    whatever crashed or wedged.  Together with the {!Client} circuit
    breakers and the {!Coordinator}'s half-open revival, this closes
    the loop: a daemon SIGKILLed mid-sweep is restarted here, answers
    its probes, and rejoins the running sweep on the client side.

    {2 Policy}

    - {b Restart backoff}: a failed child is respawned after an
      exponential backoff ([sp_backoff_base_ms] doubling per
      consecutive failed generation, capped at [sp_backoff_max_ms])
      plus a {e deterministic} jitter — a hash of
      [(sp_seed, child, attempt)], not a random draw — so a chaos run
      replays the same restart timeline for the same seed.  Reaching
      ready resets the consecutive-failure count.
    - {b Wedge detection}: a child that keeps running but does not
      reach (or return to) a live [health] state — [ready],
      [overloaded] or [draining] all count; [starting] forever and not
      answering at all both do not — within [sp_wedge_timeout_ms] is
      SIGKILLed and treated as a failure.
    - {b Storm breaker}: [sp_storm_failures] failures of the {e same}
      child within [sp_storm_window_s] seconds mean the child can not
      come up (bad flags, unbindable endpoint, missing binary); the
      supervisor drains the rest of the fleet and gives up —
      {!run} returns [Storm] and the CLI exits 3.
    - {b Shutdown}: {!stop} (wired to SIGTERM/SIGINT by the CLI) fans
      SIGTERM out to every child — each daemon then drains exactly as
      an individually-TERMed [mira serve] would — waits up to
      [sp_grace_ms], and SIGKILLs stragglers.

    The control loop is single-threaded and poll-driven; {!stop} only
    flips an atomic flag, so it is safe from a signal handler. *)

type child_spec = {
  cs_name : string;  (** label used in every log line *)
  cs_argv : string array;  (** full argv; [argv.(0)] is the executable *)
  cs_endpoint : Endpoint.t;  (** where the child's [health] verb answers *)
}

type config = {
  sp_children : child_spec list;
  sp_probe_interval_ms : int;  (** readiness poll period (and probe I/O timeout) *)
  sp_wedge_timeout_ms : int;  (** unready this long → SIGKILL + restart *)
  sp_backoff_base_ms : int;
  sp_backoff_max_ms : int;
  sp_storm_failures : int;  (** per-child failures that trip the breaker… *)
  sp_storm_window_s : float;  (** …when inside this window *)
  sp_grace_ms : int;  (** SIGTERM → SIGKILL drain deadline *)
  sp_seed : int;  (** jitter determinism *)
  sp_auth_secret : string option;
      (** seals every [health] probe ({!Client.probe}); a child serving
          [tcp:] with a secret rejects unsealed frames *)
  sp_log : string -> unit;
}

val default_config : children:child_spec list -> config
(** 300 ms probes, 10 s wedge timeout, 200 ms backoff doubling to a
    5 s cap, breaker at 5 failures in 30 s, 5 s drain grace, seed 0,
    no secret, logging to [stderr]. *)

type stats = {
  su_spawns : int;  (** processes forked, including the initial fleet *)
  su_restarts : int;  (** respawns scheduled after a failure *)
  su_wedge_kills : int;  (** children SIGKILLed for failing readiness *)
  su_storms : int;
}

type outcome =
  | Drained  (** {!stop} was called and the fleet drained *)
  | Storm of string  (** this child tripped the restart-storm breaker *)

type t

val create : config -> t
(** Raises [Failure] on an empty child list.  Nothing is spawned until
    {!run}. *)

val stop : t -> unit
(** Begin shutdown: the control loop notices within a tick and fans
    SIGTERM out to the fleet.  Signal-handler-safe; idempotent. *)

val run : t -> outcome
(** Spawn the fleet and supervise it in the calling thread until
    {!stop} or a restart storm.  Either way the fleet is drained
    (SIGTERM, [sp_grace_ms], SIGKILL) before returning. *)

val stats : t -> stats
