(** [mira serve]: a long-lived analysis daemon on one or more
    {!Endpoint}s (Unix-domain and/or TCP).

    The daemon keeps one {!Batch.cache} warm across requests — models
    are generated once and evaluated many times, so the serving layer
    is where the two-tier cache pays off — and exposes the analysis
    pipeline to untrusted clients.  Its contract is that {e no request
    can take it down}:

    - The wire format is a length-prefixed, versioned, checksummed
      frame ({!read_frame} / {!write_frame}); the full grammar, the
      [id=] pipelining tags, and the error taxonomy are documented in
      [docs/PROTOCOL.md] — that page is the stable wire API.
      Malformed input is answered with a structured error frame;
      whenever the frame boundary can no longer be trusted (including
      checksum mismatches: the digest covers only the payload, so a
      corrupted length prefix surfaces as one) the connection is also
      dropped.  The accept loop is never affected.
    - Every analysis runs under a per-request {!Limits} budget: the
      server's defaults, clamped further by the request (a request can
      only tighten its budget, never exceed the server's).  A hostile
      source exhausts its fuel or deadline and becomes an error frame.
    - Worker exceptions are caught and rendered as {!Diag}-derived
      error frames; the connection, and the daemon, live on.
    - Admission is bounded twice over: at most [cfg_max_inflight]
      connections are served concurrently (beyond that, new
      connections receive an [overloaded] frame and are closed), and
      each connection pipelines at most [cfg_max_pipeline] tagged
      requests (beyond that, the connection's reader stops consuming,
      backpressuring the socket).  Memory use never grows with
      offered load.
    - {!stop} (wired to SIGTERM/SIGINT by the CLI, and to the
      [shutdown] request) drains in-flight requests up to a hard
      deadline before {!serve} returns.

    {2 Pipelining}

    A request carrying an [id=] field may be answered out of order:
    the daemon dispatches it concurrently (bounded by
    [cfg_max_pipeline]) and echoes the tag on the response —
    including error responses — so a client holding several requests
    on one connection re-associates each answer by its id.  Requests
    without an [id=] keep the original strictly-serial semantics; the
    two styles can be mixed but serial requests then see arbitrary
    interleaving, so clients should pick one per connection.
    {!Client} implements the tagged style, with pooling and failover,
    on top of this. *)

(** {1 Configuration} *)

type config = {
  cfg_endpoints : Endpoint.t list;
      (** listeners; at least one ([unix:] and [tcp:] freely mixed) *)
  cfg_max_inflight : int;  (** concurrent connections before shedding *)
  cfg_max_pipeline : int;
      (** tagged requests in flight per connection before the reader
          stops consuming (socket backpressure) *)
  cfg_max_frame_bytes : int;  (** largest accepted request payload *)
  cfg_idle_timeout_ms : int;
      (** per-read/write socket timeout; a stalled (slow-loris) client
          is disconnected, never waited on forever — but a client
          merely waiting for its pipelined responses is not idle;
          [0] disables *)
  cfg_drain_ms : int;
      (** hard deadline for the graceful-shutdown drain *)
  cfg_workers : int;
      (** worker threads: every request but the inline verbs runs on
          this fixed pool, so concurrent analyses are bounded by the
          pool, not by connection or request count *)
  cfg_level : Mira_codegen.Codegen.level;
  cfg_limits : Limits.t;  (** per-request budget ceiling *)
  cfg_cache : Batch.cache option;
      (** the warm cache, shared by all requests; a file-tier miss
          re-analyzes only the functions its function tier lacks *)
  cfg_faults : Faults.t option;
      (** deterministic fault schedule (worker and wire sites; the
          wire sites fire identically over Unix and TCP transports) *)
  cfg_auth_secret : string option;
      (** shared-secret frame authentication ({!Auth}): when set, every
          [tcp:] request frame must carry a valid [auth=] MAC (optional
          on [unix:], but verified when present), rejected frames are
          answered with an [auth] error and dropped before they reach
          the parser or the analysis pool, and every outgoing frame is
          sealed in turn *)
}

val default_config_endpoints : endpoints:Endpoint.t list -> config
(** 8 in-flight connections, 8-deep pipelines, 4 MiB frames, 30 s idle
    timeout, 2 s drain, 8 workers, [O1], {!Limits.default}, no cache,
    no faults, no auth secret. *)

val default_config : socket:string -> config
(** [default_config_endpoints] over a single Unix-socket endpoint. *)

(** {1 Frame layer}

    Exposed so tests (and any other client) can speak — and abuse —
    the wire format directly.  See [docs/PROTOCOL.md] for the byte
    layout and payload grammar. *)

val magic : string
(** The 6-byte frame magic; its last byte before the newline is the
    frame-format version. *)

type frame_error =
  | Closed  (** clean EOF between frames *)
  | Truncated  (** EOF mid-frame *)
  | Bad_magic
  | Oversized of int  (** declared payload length exceeds the cap *)
  | Bad_checksum
  | Timed_out  (** the socket timeout expired mid-read *)

val frame_error_to_string : frame_error -> string

val write_frame : ?faults:Faults.t -> Unix.file_descr -> string -> unit
(** Frame [payload] and write it fully.  With [faults], the [net_write]
    site truncates the write mid-frame (short write), the [disconnect]
    site truncates it and shuts the socket down, and the [slow] site
    stalls [slow_ms] between header and payload (a slow client) —
    each raising/returning exactly as the real condition would, on
    either transport. *)

val read_frame :
  ?max_bytes:int -> Unix.file_descr -> (string, frame_error) result
(** Read one frame's payload ([max_bytes] caps the declared length;
    default 4 MiB).  A blocking one-shot read: after a {!Timed_out}
    mid-frame the bytes already read are lost, so the descriptor is
    unusable.  A long-lived reader that waits out socket timeouts uses
    a {!decoder} instead. *)

type decoder
(** The resumable frame decoder behind {!read_frame}, the daemon's
    event loop and {!Client}'s reader: the one place the magic, the
    length cap and the digest are checked.  It keeps a partial frame
    across calls and never reads past the frame it is assembling. *)

val decoder : ?max_bytes:int -> unit -> decoder

type progress = Frame of string | Partial | Blocked

val decode : decoder -> Unix.file_descr -> (progress, frame_error) result
(** One read(2) into the current frame: a whole verified payload, some
    bytes ([Partial]), or none ([Blocked]: the read would block or the
    socket timeout expired).  An error ends the stream ({!Closed} only
    at a frame boundary); read errors other than EINTR, EAGAIN,
    ECONNRESET and EPIPE are raised. *)

(** {1 Requests and responses} *)

type budget_request = {
  rq_fuel : int option;
  rq_timeout_ms : int option;
  rq_depth : int option;
}
(** Per-request budget clamp: each field, when set, {e lowers} the
    server's corresponding default ([min]); it can never raise it. *)

val no_budget : budget_request

type sweep_binding = {
  sb_index : int;
      (** caller-chosen tag echoed as [binding=] on the response frame;
          what lets a coordinator track completion across re-dispatch *)
  sb_source : string;  (** names an entry of [sw_sources] *)
  sb_function : string;
  sb_params : (string * int) list;
}

type request =
  | Ping
  | Stats
  | Health
      (** readiness/liveness probe, answered inline by the event loop:
          the response carries [state=starting|ready|draining|overloaded]
          plus [inflight=], [max-inflight=], [workers=], [served=] and
          [failed=] fields.  [starting] means the process answered but
          the serve loop is not live yet; [draining] that {!stop} has
          begun; [overloaded] that admission is at [cfg_max_inflight].
          Purely additive to the wire format — a pre-health daemon
          answers it with an [unknown request verb] error, which probes
          should treat as "ready, but old".  The {!Supervisor} polls
          this verb to distinguish a wedged child from a busy one. *)
  | Shutdown
  | Analyze of {
      an_name : string;  (** source name used in the model/report *)
      an_source : string;
      an_budget : budget_request;
    }
  | Eval of {
      ev_name : string;
      ev_source : string;
      ev_function : string;  (** mangled function name *)
      ev_params : (string * int) list;
      ev_budget : budget_request;
    }
  | Sweep of {
      sw_sources : (string * string) list;  (** (name, text), each once *)
      sw_bindings : sweep_binding list;
      sw_budget : budget_request;  (** clamp shared by every binding *)
    }
      (** a whole sweep chunk in one frame: the daemon schedules the
          bindings across its worker pool and streams one
          [binding=]-tagged response frame per binding (in completion
          order) followed by a terminal [sweep-done=1] frame.  Requires
          an [id=] tag; see "The sweep verb" in [docs/PROTOCOL.md]. *)
  | Watch of { wt_path : string; wt_source : string }
      (** register [wt_path] with the daemon's watch-mode session and
          analyze it cold.  An empty [wt_source] makes the daemon read
          the file from its own filesystem (shared-filesystem
          deployment); otherwise the body carries the text.  Response:
          [path=], [functions=] fields and the model's JSON encoding as
          body.  See "Watch mode" in [docs/PROTOCOL.md]. *)
  | Reanalyze of { rz_path : string; rz_source : string }
      (** diff the new text of a watched file against its last
          analyzed state, re-analyze exactly the invalidated functions
          (including cross-file dependents) on the worker pool, and
          stream one [binding=]-tagged frame per invalidated function
          followed by a terminal [reanalyze-done=1] frame carrying the
          reassembled models.  Requires an [id=] tag, like {!Sweep}. *)
  | Forget of { fg_path : string }
      (** drop a file from the watch-mode session ([forgotten=0] when
          it was not watched). *)

val encode_request : ?id:string -> request -> string
(** The request payload (to hand to {!write_frame}).  With [id], the
    request is tagged for pipelining: the daemon may answer it out of
    order and echoes [id] on the response.  Without it, the payload is
    byte-identical to the pre-pipelining wire format. *)

val parse_request : string -> (request, string) result
(** The request proper; any [id=] tag is read separately
    ({!payload_id}) so it survives even verbs this parser rejects. *)

val payload_id : string -> string option
(** The [id=] field of a request payload, when the payload parses at
    all — extracted independently of the verb so even a bad-request
    error frame can be re-associated by a pipelining client. *)

type response = {
  rs_status : string;  (** ["ok"], ["error"] or ["overloaded"] *)
  rs_fields : (string * string) list;  (** in wire order; keys repeat *)
  rs_body : string;
}

val encode_response : response -> string
val parse_response : string -> (response, string) result

val field : response -> string -> string option
(** First field with that key ([field r "id"] recovers the pipelining
    tag). *)

(** {1 Server} *)

type server_stats = {
  sv_uptime_ms : int;
  sv_served : int;  (** requests answered [ok] *)
  sv_failed : int;  (** requests answered [error] *)
  sv_shed : int;  (** connections answered [overloaded] and dropped *)
  sv_protocol_errors : int;  (** malformed frames rejected *)
  sv_inflight : int;  (** connections being served right now *)
  sv_inflight_hwm : int;  (** in-flight high-water mark *)
  (* cache efficiency and robustness, so an operator can watch them
     degrade before it becomes an outage: each served analyze/eval's
     tier outcome ([sv_analyzed] … [sv_assembled]), then the configured
     cache's own function-tier, corruption and I/O counters
     ({!Batch.cache_health}; 0 without a cache), so each cache event
     counts once however many requests overlap *)
  sv_analyzed : int;
  sv_mem_hits : int;
  sv_disk_hits : int;
  sv_assembled : int;
  sv_fn_mem_hits : int;
  sv_fn_disk_hits : int;
  sv_fn_analyzed : int;
  sv_cache_corrupt : int;
  sv_io_retries : int;
  sv_io_failures : int;
  (* the compiled-evaluator cache (see {!Model_compile}): eval and
     sweep requests compile each (model, function, parameter-name set)
     once and re-run the program per binding *)
  sv_compile_hits : int;
  sv_compile_misses : int;
  sv_compile_fallbacks : int;
      (** evals answered by the interpreter (model not compilable) *)
}

val stats_fields : server_stats -> (string * string) list
(** Deterministically ordered [key=value] rendering — the body of a
    [stats] response.  The response additionally carries [proto=mira/1]
    and [transport=unix|tcp] fields, so a pool can refuse a mismatched
    daemon with a clear diagnostic instead of a decode error. *)

type t

val create : config -> t
(** Bind and listen on every configured endpoint (all bound before any
    is served; a failure unwinds them all).  For Unix endpoints a
    leftover socket file from a dead daemon is detected (connect
    probe) and replaced; a live one raises [Failure].  Also ignores
    SIGPIPE process-wide: a client disconnecting mid-response must
    surface as [EPIPE] on that connection, not kill the process. *)

val bound_endpoints : t -> Endpoint.t list
(** The endpoints actually listening — identical to [cfg_endpoints]
    except that a [tcp:HOST:0] request carries the OS-assigned
    ephemeral port, so callers can advertise a connectable address. *)

val stop : t -> unit
(** Begin graceful shutdown: stop accepting, let in-flight requests
    finish (up to [cfg_drain_ms]), then force-close stragglers.  Safe
    to call from a signal handler or another thread; idempotent. *)

val serve : t -> server_stats
(** Run the event loop in the calling thread until {!stop} (or a
    [shutdown] request) and the drain complete; returns the final
    stats.  All sockets are serviced by one poller here — an idle
    connection costs a descriptor, not a thread.  Ping, health, stats
    and shutdown are answered inline by the loop; all other work runs
    as jobs on the [cfg_workers] pool and reuses the shared cache:
    analyze, eval, each sweep binding, watch and forget, and a
    reanalyze's file read and plan, its recomputations and its
    commit.  The loop itself does no file I/O and no analysis, so no
    request can stall it.  See "Server concurrency model" in
    [docs/PROTOCOL.md]. *)

val stats : t -> server_stats
(** A live snapshot (what a [stats] request returns). *)

(** {1 Low-level client helpers}

    One blocking request per connection, no pooling, no pipelining —
    kept for tests and scripts that drive the frame layer directly,
    and for {!Client}'s one-shot probes.  Real clients should use
    {!Client}. *)

val connect : ?io_timeout_ms:int -> string -> Unix.file_descr
(** Connect to a daemon's Unix socket
    ([Endpoint.connect (Unix_sock path)]).  With [io_timeout_ms > 0]
    the connect, and every subsequent read and write on the
    descriptor, is bounded: a wedged or stalled daemon surfaces as
    [Unix_error (ETIMEDOUT, _, _)] (connect) or {!Timed_out}
    (roundtrip) instead of hanging the client forever.  [0] (the
    default) keeps the descriptor fully blocking. *)

val send :
  ?faults:Faults.t ->
  ?auth_secret:string ->
  ?id:string ->
  Unix.file_descr ->
  request ->
  unit
(** Encode one request ({!encode_request}), seal it with
    [auth_secret] ({!Auth.seal}) and write it ({!write_frame}, which
    applies [faults]).  Raises as {!write_frame} does. *)

val open_response :
  ?auth_secret:string -> string -> (response, string) result
(** Verify and parse one response payload.  With [auth_secret] only a
    sealed response with a valid MAC is accepted, since a
    secret-bearing daemon seals everything it sends. *)

val roundtrip :
  ?faults:Faults.t ->
  ?max_bytes:int ->
  ?auth_secret:string ->
  Unix.file_descr ->
  request ->
  (response, string) result
(** One request/response exchange on an open connection: {!send},
    then {!read_frame} and {!open_response}.  Not suitable for [Sweep] or [Reanalyze] (multiple
    response frames). *)

val wait_ready : ?timeout_s:float -> string -> bool
(** Poll [connect]+[ping] until the daemon answers (for scripts and
    tests that just started one); [false] on timeout (default 5 s). *)
