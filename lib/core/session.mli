(** Long-lived incremental analysis sessions — watch mode.

    A session holds, per watched file, the parsed AST, the
    per-function fingerprint table and the assembled model, plus a
    cross-file dependency index: each exported declaration key
    ([sig:NAME], [class:NAME], [extern:NAME], [ann:NAME] — see
    {!Mira_srclang.Fingerprint.interface_of_program}) maps to every
    function, in any file, whose analysis closure references it.

    {!reanalyze} diffs the edited file's per-function fingerprints,
    invalidates exactly the edited functions {e and} all cross-file
    dependents of its changed interface keys, re-analyzes only those
    ({!Input_processor.function_part}, as a cached {!Batch} miss
    does), and reassembles each touched file's model.
    Every warm model is {b byte-identical} to a cold whole-file
    analysis of the same text.

    The three-phase {!plan} → {!recompute} → {!commit} split exists so
    the serve daemon can fan recomputations out over its worker pool;
    {!recompute} is pure and thread-safe, while {!plan} and {!commit}
    serialize behind the session's internal mutex.  In-process callers
    use {!reanalyze}, which composes the three. *)

type t

type counters = {
  ct_files : int;  (** currently watched files *)
  ct_reanalyses : int;  (** committed reanalyze calls *)
  ct_invalidated : int;  (** cumulative invalidated functions *)
  ct_local : int;  (** … of which in the edited file itself *)
  ct_cross : int;  (** … of which cross-file dependents *)
  ct_recomputed : int;  (** function recomputations performed *)
  ct_clean : int;  (** reanalyzes that invalidated nothing *)
}

type reason =
  | Edited  (** the function's own fingerprint changed *)
  | Added  (** new function in the edited file *)
  | Cross of string
      (** dependent in another file; the payload is the changed
          interface key (e.g. ["sig:g"]) that reached it *)

val reason_to_string : reason -> string
(** ["edited"], ["added"], ["cross:KEY"]. *)

type inval = { iv_file : string; iv_func : string; iv_reason : reason }
(** One invalidated function (mangled name). *)

type info = {
  in_path : string;
  in_functions : string list;  (** mangled, program order *)
  in_model : Model_ir.t;
  in_python : string;
}

type plan
(** A computed invalidation set for one edit, pinned to a snapshot of
    the session: which functions to recompute and what the edited
    file's new tables will be. *)

type update = {
  up_path : string;  (** the edited file *)
  up_invalidated : inval list;  (** edited-file first, then dependents *)
  up_recomputed : int;  (** parts actually rebuilt *)
  up_failed : int;  (** recomputations that raised (file kept stale) *)
  up_cross_files : string list;  (** other files touched, sorted *)
  up_deleted : string list;  (** functions removed by the edit *)
  up_clean : bool;  (** nothing invalidated and nothing deleted *)
  up_models : (string * Model_ir.t) list;
      (** (path, model) for every file whose model was reassembled —
          each renders ({!Python_emit.emit}) byte-identical to a cold
          analysis of that file's current text *)
}

val create : ?level:Mira_codegen.Codegen.level -> ?limits:Limits.t -> unit -> t
(** A fresh session.  [level] must match the cold analyses warm
    results are compared against (default [O1], {!Batch.run}'s
    default); [limits] bounds every per-file analysis and
    recomputation exactly as one batch source is bounded. *)

val watch : t -> path:string -> string -> (info, Diag.t) result
(** Cold whole-file analysis of [text] ({!Input_processor.parts}, as a
    cold {!Batch} source); the file is registered (or refreshed) under
    [path].  Never raises: failures come back as a structured
    {!Diag.t} and leave the session unchanged. *)

val forget : t -> path:string -> bool
(** Drop a file and its index entries; [false] when it was not
    watched. *)

val reanalyze : t -> path:string -> string -> (update, Diag.t) result
(** Diff [text] against the watched state of [path], re-analyze
    exactly the invalidated functions, reassemble touched models.
    [Error] on an unwatched path, a source that no longer parses or
    typechecks, or a failed recomputation — the session then keeps
    every file's last good model. *)

(** {2 The daemon's split pipeline} *)

val plan : t -> path:string -> string -> (plan, Diag.t) result
val plan_invalidated : plan -> inval list

val recompute : t -> plan -> inval -> (Metric_gen.part, Diag.t) result
(** Rebuild one invalidated function's part.  Pure and thread-safe —
    the daemon runs these concurrently on its worker pool. *)

val commit :
  t -> plan -> (inval * (Metric_gen.part, Diag.t) result) list -> update
(** Apply the plan: install new parts, reassemble every touched
    file's model, update counters.  A file whose invalidated set has
    any failed recomputation keeps its last good state (counted in
    [up_failed]). *)

(** {2 Observation} *)

val paths : t -> string list
(** Watched paths, sorted. *)

val lookup : t -> path:string -> info option
val source : t -> path:string -> string option
val counters : t -> counters
