(** The Metric Generator (paper §III-B): traverses the source AST with
    the binary AST attached through the {!Bridge} and produces the
    performance model.

    The bottom-up phase of the paper (hoisting SCoP information to
    loop head nodes) corresponds to {!Scop} extraction here; the
    top-down phase is the walk that pushes polyhedral context (loop
    levels, branch constraints, annotation scales) into nested
    structures while claiming each structure's instructions from the
    bridge.

    Every instruction of every analyzed function is attributed exactly
    once: statement buckets claim their spans, loop heads claim their
    init/cond/step sub-spans with the right multiplicities (once,
    n+1, n), and whatever remains (prologue, epilogue) is charged once
    per invocation. *)

exception Unsupported of string * Mira_srclang.Loc.pos

type part = {
  fp_name : string;  (** mangled: [Class::method] for methods *)
  fp_source_params : string list;
  fp_arity : int;
  fp_class : string option;
  fp_entries : Model_ir.entry list;
  fp_warnings : string list;
  fp_free : string list;
      (** free model variables of [fp_entries]' multiplicities (not
          of call-site bindings), precomputed so the assembly fixpoint
          never re-walks the (possibly very large) multiplicity
          expressions *)
}
(** One function's contribution to the model before the whole-program
    parameter fixpoint.  A part depends only on the function and its
    analysis closure (signatures, classes, externs), never on other
    functions' bodies — which is what makes parts cacheable under a
    {!Mira_srclang.Fingerprint} digest.  It holds no rendered Python:
    {!Python_emit} renders the assembled model. *)

val build_part : Mira_srclang.Ast.program -> Bridge.t -> Mira_srclang.Ast.func -> part
(** Model one function of a typechecked program against a bridge that
    contains it (whole-file or reduced single-function compilation —
    the result is identical either way; {!Input_processor} builds
    both).
    @raise Unsupported only for malformed inputs (analysis limitations
    produce warnings and parameters instead, as the paper's annotation
    workflow expects). *)

val assemble : source_name:string -> part list -> Model_ir.t
(** Run the cross-function parameter fixpoint over the parts of every
    function of a program, in program order, and produce the model.
    Parts may come from a cache instead of {!build_part}; the output
    is byte-identical. *)
