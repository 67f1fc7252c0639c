(** The Input Processor (paper §III-A): parses the source into the
    source AST, puts the compiled object file through the binary path
    (encode → decode → disassemble) to obtain the binary AST, and
    bridges the two into each function's {!Metric_gen.part}.  It is
    the only code that compiles a source for analysis.

    Note the deliberate round-trip: Mira only ever sees the {e decoded
    object bytes}, never the compiler's in-memory program, mirroring
    the paper's setup where the binary comes from an external
    toolchain.

    {!prepare} does the cheap source-side work (parse, fold, typecheck,
    closure fingerprint) shared by every function.  Then either
    {!parts} compiles the whole file once and models every function,
    or each function is digested ({!function_digest}) and, on a cache
    miss, compiled and modelled alone ({!function_part}).  A function
    gets the same part either way. *)

type prepared = {
  pr_level : Mira_codegen.Codegen.level;
  pr_ast : Mira_srclang.Ast.program;  (** folded, typechecked *)
  pr_closure : Mira_srclang.Fingerprint.context;
}

val prepare : ?level:Mira_codegen.Codegen.level -> string -> prepared
(** Parse mini-C source text, run the compiler's
    {!Mira_codegen.Codegen.front_end} on it at [level] (default [O1]:
    fold, typecheck) and compute the fingerprint closure.  Every
    compile of the result runs only the backend.
    @raise Mira_srclang.Parser.Error,
    [Mira_srclang.Typecheck.Check_error]. *)

type t = {
  ast : Mira_srclang.Ast.program;  (** typechecked source AST *)
  object_bytes : string;
  binast : Mira_visa.Binast.t;
}

val parts : prepared -> t * Metric_gen.part list
(** Compile the whole file once, decode its object bytes, bridge the
    binary AST to the source and model every function, in program
    order ({!Metric_gen.assemble} turns the parts into the model).
    @raise Mira_codegen.Codegen.Error, {!Metric_gen.Unsupported}. *)

val function_digest : prepared -> salt:string -> Mira_srclang.Ast.func -> string
(** Content digest of one function of [pr_ast] under its closure; see
    {!Mira_srclang.Fingerprint.func_digest}. *)

val function_part : prepared -> Mira_srclang.Ast.func -> Metric_gen.part
(** The part of one function of [pr_ast], from a compilation of the
    program with every other function stubbed.  The kept function's
    instruction stream is identical to its stream in the whole-file
    compilation, so the part is identical to its part in {!parts}. *)
