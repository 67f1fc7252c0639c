type t = {
  source_name : string;
  source : string;
  ast : Mira_srclang.Ast.program;
  object_bytes : string;
  binast : Mira_visa.Binast.t;
  level : Mira_codegen.Codegen.level;
}

type prepared = {
  pr_source_name : string;
  pr_source : string;
  pr_level : Mira_codegen.Codegen.level;
  pr_ast : Mira_srclang.Ast.program;
  pr_closure : Mira_srclang.Fingerprint.context;
}

let prepare ?(level = Mira_codegen.Codegen.O1) ~source_name source =
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
    pr_source_name = source_name;
    pr_source = source;
    pr_level = level;
    pr_ast = ast;
    pr_closure = Mira_srclang.Fingerprint.context_of_program ast;
  }

let process_prepared pr =
  (* compiled from the prepared AST, not re-parsed from the text: the
     object bytes are the same (see [process_function]) *)
  let object_bytes =
    Mira_visa.Objfile.encode
      (Mira_codegen.Codegen.compile_ast ~level:pr.pr_level pr.pr_ast)
  in
  let binast = Mira_visa.Binast.of_object object_bytes in
  {
    source_name = pr.pr_source_name;
    source = pr.pr_source;
    ast = pr.pr_ast;
    object_bytes;
    binast;
    level = pr.pr_level;
  }

let process ?level ~source_name source =
  process_prepared (prepare ?level ~source_name source)

let function_digest pr ~salt (f : Mira_srclang.Ast.func) =
  Mira_srclang.Fingerprint.func_digest ~context:pr.pr_closure ~salt f

let process_function pr (f : Mira_srclang.Ast.func) =
  (* the same deliberate object-file round-trip as [process], on a
     program reduced to [f] plus stubs.  The reduction starts from the
     prepared AST rather than re-parsing the source — parsing is the
     dominant cost of a single-function re-analysis, and reusing the
     AST is sound because typechecking fills [ety] slots
     unconditionally and folding rebuilds nodes, so the compiled
     object is byte-for-byte what a fresh parse would give. *)
  Mira_visa.Binast.of_object
    (Mira_visa.Objfile.encode
       (Mira_codegen.Codegen.compile_ast ~level:pr.pr_level
          (Mira_codegen.Codegen.reduce_to_function pr.pr_ast
             ~name:f.Mira_srclang.Ast.fname ~cls:f.Mira_srclang.Ast.fclass)))

let process_file ?level path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  process ?level ~source_name:(Filename.basename path) source
