(** Facade tying the pipeline together: source → {!Input_processor}
    (compile, object round trip, bridge, per-function parts) →
    {!Metric_gen.assemble} → model, plus evaluation and reporting
    conveniences.  This is the API the CLI, examples and benchmarks
    use. *)

type t = {
  input : Input_processor.t;
  model : Model_ir.t;
}

val analyze :
  ?level:Mira_codegen.Codegen.level -> ?source_name:string -> string -> t
(** Analyze mini-C source text (builds the model for every function):
    {!Input_processor.parts} of the prepared text, assembled. *)

val analyze_batch :
  ?jobs:int ->
  ?cache:Batch.cache ->
  ?level:Mira_codegen.Codegen.level ->
  ?limits:Limits.t ->
  ?faults:Faults.t ->
  (string * string) list ->
  Batch.result list * Batch.stats
(** Analyze many [(name, source)] pairs through {!Batch}: a fixed-size
    pool of worker domains, deterministic input-order results, optional
    content-addressed memoization (a cached file-tier miss re-analyzes
    only the functions the function tier lacks — see {!Batch.run}),
    per-source {!Limits} budgets, and an optional deterministic
    {!Faults} schedule. *)

val counts :
  t -> fname:string -> env:(string * int) list -> (string * float) list
(** Predicted per-mnemonic counts for one invocation of [fname] (the
    mangled name, e.g. ["cg_solve"] or ["A::foo"]). *)

val counts_split :
  t -> fname:string -> env:(string * int) list ->
  (string * (float * float)) list
(** (serial, parallel) per-mnemonic counts, split by [{parallel:yes}]
    annotations — feeds {!Predict.parallel_estimate}. *)

val fpi : t -> fname:string -> env:(string * int) list -> float
(** Predicted floating-point instruction count — the paper's headline
    metric. *)

val python_model : t -> string
(** The generated Python model (Figure 5). *)

val parameters : t -> fname:string -> string list
(** Model parameters [fname]'s evaluation requires. *)

val warnings : t -> (string * string) list
(** (function, warning) pairs accumulated during analysis. *)

val source_dot : t -> string
(** Source AST in Graphviz form (Figure 2). *)

val binary_dot : t -> string
(** Binary AST in Graphviz form (Figure 3). *)

val with_endpoint :
  ?io_timeout_ms:int -> Endpoint.t -> (Client.t -> 'a) -> 'a
(** Re-export of {!Client.with_endpoint}: open a pooled connection to
    one daemon, run the callback, close — the one-shot convenience for
    library users, who never need the {!Serve} frame codec directly:
    [Mira.with_endpoint e (fun c -> Client.request c Serve.Ping)]. *)
