type prepared = {
  pr_level : Mira_codegen.Codegen.level;
  pr_ast : Mira_srclang.Ast.program;
  pr_closure : Mira_srclang.Fingerprint.context;
}

let prepare ?(level = Mira_codegen.Codegen.O1) source =
  (* The analysis AST is folded the same way the compiler folds (spans
     are preserved), so the metric generator's value propagation sees
     the expressions the binary actually implements; the compiler
     then compiles this same AST. *)
  let parsed = Mira_srclang.Parser.parse source in
  let parsed =
    match level with
    | Mira_codegen.Codegen.O0 -> parsed
    | Mira_codegen.Codegen.O1 | Mira_codegen.Codegen.O2 ->
        Mira_codegen.Fold.program parsed
  in
  let ast = Mira_srclang.Typecheck.check_exn parsed in
  {
    pr_level = level;
    pr_ast = ast;
    pr_closure = Mira_srclang.Fingerprint.context_of_program ast;
  }

type t = {
  ast : Mira_srclang.Ast.program;
  object_bytes : string;
  binast : Mira_visa.Binast.t;
}

(* The deliberate object-file round trip, then the bridge.  Compiled
   from the prepared AST, not re-parsed from the text: typechecking
   fills [ety] slots unconditionally and folding rebuilds nodes, so the
   object is byte-for-byte what a fresh parse would give, and parsing
   is the dominant cost of a single-function re-analysis. *)
let compile pr ast =
  let object_bytes =
    Mira_visa.Objfile.encode
      (Mira_codegen.Codegen.compile_ast ~level:pr.pr_level ast)
  in
  let binast = Mira_visa.Binast.of_object object_bytes in
  (object_bytes, binast, Bridge.create binast)

let parts pr =
  let object_bytes, binast, bridge = compile pr pr.pr_ast in
  ( { ast = pr.pr_ast; object_bytes; binast },
    List.map
      (Metric_gen.build_part pr.pr_ast bridge)
      (Mira_srclang.Ast.all_functions pr.pr_ast) )

let function_digest pr ~salt (f : Mira_srclang.Ast.func) =
  Mira_srclang.Fingerprint.func_digest ~context:pr.pr_closure ~salt f

let function_part pr (f : Mira_srclang.Ast.func) =
  let _, _, bridge =
    compile pr
      (Mira_codegen.Codegen.reduce_to_function pr.pr_ast
         ~name:f.Mira_srclang.Ast.fname ~cls:f.Mira_srclang.Ast.fclass)
  in
  Metric_gen.build_part pr.pr_ast bridge f
