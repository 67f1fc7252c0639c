(** Partial evaluation of performance models into closed-form register
    programs.

    {!Model_eval} re-walks the symbolic expression tree and splices
    callees on every evaluation; this module does that walk {e once}:
    given a model, a set of sweep variables and fixed values for the
    remaining parameters, it evaluates the model symbolically — fixed
    parameters and call bindings folded, deferred counts pre-expanded
    by enumeration, callee models inlined by call multiplicity, all
    polynomial contributions merged exactly in rational arithmetic —
    into one closed form per mnemonic, Horner-schedules the
    polynomials in the sweep variables, and emits a flat register
    program: an array of ops over a float register file with inputs
    bound by slot index.  Running one sweep binding is then a single
    allocation-free pass over the op array — no closures, no assoc
    lookups, no hashing.

    Results match {!Model_eval} to float tolerance (the symbolic
    merge reassociates float arithmetic, so the last ulps can differ;
    integer-exact paths — call bindings, floor steps — are exact by
    construction).  Models whose counts stay data-dependent under the
    chosen sweep set (a {!Mira_poly.Count.Deferred} count over a live
    sweep variable) are rejected with {!Not_compilable}; callers fall
    back to the interpreter.

    A program computes the {!Model_eval.eval} shape: callees spliced
    in, one count per mnemonic.  Programs contain only plain data and
    are cacheable: {!cache} keys them by (model digest, fname, sweep
    set, fixed values).  Programs carry no arch: per-arch metrics
    weight the counts {!run} returns. *)

exception Not_compilable of string
(** The model has no closed form under the requested sweep set (or
    blew a compile-time size/depth cap).  Evaluate with {!Model_eval}
    instead. *)

(** {1 Programs} *)

type prog
(** A compiled evaluator.  Plain data (marshallable). *)

val compile :
  Model_ir.t ->
  fname:string ->
  sweep:string list ->
  fixed:(string * int) list ->
  prog
(** Compile [fname] of the model with the given sweep variables (the
    program's inputs, in this order) and fixed parameter values.
    @raise Not_compilable when no closed form exists (see above).
    @raise Model_eval.Missing_parameter when the model references a
    parameter that is neither swept nor fixed — the same error
    interpreted evaluation raises.
    @raise Invalid_argument on unknown function names (same message as
    {!Model_eval.eval}). *)

val params : prog -> string array
(** Input slot order (= the [sweep] list passed to {!compile}). *)

val mnemonics : prog -> string array
(** Canonical sorted output order, identical to the mnemonic set of
    the corresponding {!Model_eval} result. *)

val validate : prog -> bool
(** Structural soundness (register indices in range …) — what the
    unchecked hot loop relies on; used to screen disk-loaded
    programs. *)

(** {1 Execution} *)

type runner
(** Mutable execution state (register file + output buffers) for one
    thread's use of a program.  Create once, run per binding. *)

val runner : prog -> runner

val run : runner -> int array -> float array
(** [run r args] evaluates one binding ([args] in {!params} order) and
    returns per-mnemonic counts in {!mnemonics} order.  The returned
    array is the runner's internal buffer — read it before the next
    [run], don't hold it.  Allocation-free. *)

val eval : prog -> env:(string * int) list -> (string * float) list
(** One-shot convenience with the {!Model_eval.eval} result shape.
    @raise Model_eval.Missing_parameter when [env] lacks an input. *)

(** {1 The program cache} *)

type cache
(** Thread-safe: a {!Store} tier of programs (memory LRU plus, when
    [dir] is given, [<key>.prog] entries — it can share a directory
    with the {!Batch} analysis cache), and a memory-only tier of "not
    compilable" verdicts, so sweeps over uncompilable models don't
    re-attempt compilation per binding. *)

val create_cache : ?capacity:int -> ?dir:string -> unit -> cache
(** [capacity] (default 256) bounds each tier's memory LRU.  Opening an
    existing [dir] runs {!Store.create}'s startup housekeeping. *)

type stats = {
  hits : int;  (** served from a tier without compiling *)
  misses : int;  (** compiled fresh *)
  disk_hits : int;  (** subset of [hits] served from disk *)
  fallbacks : int;  (** requests answered "not compilable" *)
}

val stats : cache -> stats

val cache_version : string
(** Participates in every key; bump on program-format changes. *)

val key :
  digest:string ->
  fname:string ->
  sweep:string list ->
  fixed:(string * int) list ->
  unit ->
  string
(** The content key (hex digest).  [digest] must identify the model
    content exactly — the daemon passes the source's {!Batch.key}; a
    digest of the emitted Python would not do, since Python renders
    every deferred count as [(0)]. *)

val get :
  cache ->
  digest:string ->
  model:Model_ir.t ->
  fname:string ->
  sweep:string list ->
  fixed:(string * int) list ->
  unit ->
  (prog, string) result
(** Cached {!compile}: memory, then disk, then compile-and-store.
    [Error reason] means not compilable (fall back to the
    interpreter); model/parameter errors raise as in {!compile}. *)
