(** Batch analysis driver: many mini-C sources analyzed concurrently
    on a fixed-size pool of OCaml 5 domains, with a content-addressed
    memoization cache.

    Three guarantees shape the design:

    - {b Determinism}: for a given input list, every per-source output
      (model, emitted Python, warnings, report lines) is byte-identical
      whatever [jobs] is and whatever the cache contains; only the
      trailing stats lines of {!report} reflect cache tiers.  Workers
      pull tasks from a shared index and write results into per-task
      slots; the merge replays input order.  Cache hits re-emit Python
      from the cached {!Model_ir.t} with the current source name, so a
      hit is indistinguishable from a fresh analysis.
    - {b Content addressing}: the cache key is
      [Digest(source text, codegen level, cache_version)].  Renaming a
      file reuses its entry; editing one byte, changing [-O], or
      upgrading the library invalidates it.
    - {b Fault tolerance}: a batch run always terminates and never
      raises.  Every per-source failure — malformed input, an exhausted
      {!Limits} budget, a timeout, an injected {!Faults} event, or an
      unexpected exception (classified [Internal_error] with a captured
      backtrace) — becomes a structured {!Diag.t} in that source's slot
      while the rest of the batch proceeds.  Corrupt or unreadable
      cache entries are counted and degraded to misses, and transient
      I/O errors are retried with bounded backoff ({!Store}).

    The cache is two {!Store} tiers — whole-file payloads (model plus
    emitted Python) and per-function parts — each an in-memory LRU
    plus, optionally, entries in a directory (conventionally
    [.mira-cache/]). *)

type source = { src_name : string; src_text : string }

val source_of_file : string -> source
(** Read one file; [src_name] is its basename. *)

val expand_paths : string list -> string list
(** Expand files and directories (directories contribute their [.mc]
    files, sorted by name) into a deterministic path list — the
    universe that {!shard_member} partitions. *)

val sources_of_paths : string list -> source list
(** [expand_paths] with each path read into a {!source}. *)

val shard_member : index:int -> count:int -> string -> bool
(** Whether a path belongs to shard [index] of [count] ([1 ≤ index ≤
    count]; raises [Invalid_argument] otherwise).  Membership is a
    stable hash of the path string alone, so [count] processes
    launched with the same inputs and [--shard 1/k .. k/k] partition
    the expanded path set exactly — every path in one shard, no path
    in two — without any coordination. *)

type analysis = {
  a_name : string;
  a_model : Model_ir.t;
  a_python : string;  (** the emitted Python model *)
  a_warnings : (string * string) list;
  a_cached : bool;  (** served from a cache tier, no re-analysis *)
}

type result = (analysis, string * Diag.t) Stdlib.result
(** Per-source outcome; [Error (name, diag)] for sources that fail to
    parse, typecheck, compile, or stay within budget (the batch keeps
    going). *)

type stats = {
  st_total : int;  (** sources submitted *)
  st_analyzed : int;  (** whole-file analyses actually performed *)
  st_mem_hits : int;
  st_disk_hits : int;
  st_failed : int;
  st_jobs : int;  (** worker domains actually used *)
  st_budget : int;  (** failures that were budget/timeout overruns *)
  st_injected : int;  (** failures caused by injected worker faults *)
  st_cache_corrupt : int;  (** corrupt disk entries detected this run *)
  st_io_retries : int;  (** disk I/O attempts retried this run *)
  st_io_failures : int;  (** disk I/O given up on after retries *)
  st_assembled : int;
      (** sources rebuilt from the function tier (file-tier miss) *)
  st_fn_mem_hits : int;  (** function-tier memory hits this run *)
  st_fn_disk_hits : int;  (** function-tier disk hits this run *)
  st_fn_analyzed : int;
      (** functions re-analyzed in isolation this run — editing one
          function of an N-function source costs 1 here, not N *)
}

type cache

val cache_version : string
(** Participates in every file-tier key; bump on model-format
    changes. *)

val fn_cache_version : string
(** Participates in every function-tier digest; bump when
    {!Metric_gen.part} or its serialization changes. *)

val create_cache : ?capacity:int -> ?dir:string -> unit -> cache
(** [capacity] bounds each in-memory LRU tier (default 512 entries).
    [dir] enables the on-disk tiers, [.model] and [.fnmodel] entries of
    a {!Store} directory; it is created on first write.  Opening an
    existing directory runs {!Store.create}'s startup housekeeping. *)

val set_fsync : bool -> unit
(** {!Store.set_fsync}: process-wide, every tier ([--no-fsync] turns it
    off). *)

type recovery_stats = Store.recovery_stats = {
  rc_scanned : int;
  rc_quarantined : int;
}

val recover_dir : string -> recovery_stats
(** {!Store.recover}: quarantine the torn entries of every tier. *)

val cache_dir : cache -> string option
(** The disk tiers' directory, when one was given — other per-model
    caches (e.g. {!Model_compile.cache}) co-locate their entries
    there. *)

val lock_file_name : string
(** {!Store.lock_file_name}. *)

type cache_health = {
  h_corrupt : int;
  h_io_retries : int;
  h_io_failures : int;
  h_fn_mem_hits : int;
  h_fn_disk_hits : int;
  h_fn_fresh : int;
}

val cache_health : cache -> cache_health
(** Cumulative robustness and function-tier counters of the two tiers
    over the cache value's lifetime ({!stats} reports per-run deltas of
    these). *)

val gc_disk : max_bytes:int -> cache -> int * int
(** {!Store.gc} on the cache's directory: size-capped LRU eviction of
    the entries of every tier sharing it ([.model], [.fnmodel] and
    {!Model_compile}'s [.prog]).  Returns
    [(entries_removed, bytes_freed)]; no-op without a disk tier. *)

val key : level:Mira_codegen.Codegen.level -> string -> string
(** The content-addressed cache key (hex digest) of a source text. *)

type merge_stats = Store.merge_stats = {
  mg_scanned : int;
  mg_copied : int;
  mg_present : int;
  mg_corrupt : int;
  mg_failed : int;
}

val merge_dirs : dst:string -> string list -> merge_stats
(** {!Store.merge}: union the source cache directories into [dst].
    After [merge_dirs ~dst shard_caches], a batch over the union of the
    shards' inputs runs entirely warm against [dst]. *)

val run :
  ?jobs:int ->
  ?cache:cache ->
  ?level:Mira_codegen.Codegen.level ->
  ?limits:Limits.t ->
  ?faults:Faults.t ->
  source list ->
  result list * stats
(** Analyze every source.  [jobs] defaults to 1; it is clamped to
    [1 .. max 1 (length sources)].  Results are in input order.
    [limits] is enforced per source (each gets a fresh budget whose
    deadline starts when its analysis starts).  [faults] injects a
    deterministic fault schedule — decisions depend only on
    [(seed, site, subject)], never on worker scheduling, so the set of
    affected sources is identical at any [jobs] value.

    Without a cache every source is one whole-file analysis
    ({!Input_processor.parts}).  With one, a file-tier miss probes the
    function tier by per-function {!Mira_srclang.Fingerprint} digest,
    re-analyzes only the missing functions against stub-reduced
    compilations ({!Input_processor.function_part}), and assembles the
    model from cached + fresh parts; when no function hits (a
    brand-new source), the whole file is analyzed once and seeds the
    function tier.  The output is byte-identical to a cold whole-file
    analysis either way; only the stats differ. *)

val report : result list -> stats -> string
(** Deterministic textual report of a batch run (per-source function
    lists, warnings, failures, then the stats line and — only when any
    counter is nonzero — a robustness line). *)
