type level = O0 | O1 | O2

exception Error = Emit.Error

let front_end ?(level = O1) (ast : Mira_srclang.Ast.program) =
  let ast = match level with O0 -> ast | O1 | O2 -> Fold.program ast in
  Mira_srclang.Typecheck.check_exn ast

let lower ?(level = O1) (ast : Mira_srclang.Ast.program) =
  let prog = Emit.program ~addressing_fold:(level <> O0) ast in
  let prog =
    match level with
    | O0 -> prog
    | O1 | O2 -> Peephole.program (Liveness.program prog)
  in
  match level with O2 -> Vectorize.program prog | O0 | O1 -> prog

let compile_ast ?level ast = lower ?level (front_end ?level ast)

let compile ?level src = compile_ast ?level (Mira_srclang.Parser.parse src)

let compile_to_object ?level src = Mira_visa.Objfile.encode (compile ?level src)

(* ---------- single-function isolation ---------- *)

(* Replace the body of every function except the target with a
   trivial stub of the same signature.  Signatures, classes and
   externs — the target's analysis closure — are untouched, so the
   target's own instructions come out identical to a whole-file
   compilation (lowering is per-function; the only shared state, the
   float constant pool, affects operand indices that no consumer of
   mnemonics observes).  Return types the backend cannot stub (arrays,
   classes) keep their original body: the backend rejects such
   signatures at the function header regardless of the body, so error
   behavior matches whole-file compilation exactly.  The stub literals
   carry their type, since a reduced program goes straight to
   [lower]. *)
let stub_body (f : Mira_srclang.Ast.func) =
  let open Mira_srclang in
  let ret ty e =
    let e = Ast.mk_expr ~ety:(Some ty) e Loc.dummy in
    [ Ast.mk_stmt (Ast.Return (Some e)) Loc.dummy ]
  in
  match f.Ast.fret with
  | Ast.Tvoid -> Some []
  | Ast.Tint -> Some (ret Ast.Tint (Ast.Int_lit 0))
  | Ast.Tdouble -> Some (ret Ast.Tdouble (Ast.Float_lit 0.0))
  | Ast.Tarr _ | Ast.Tclass _ -> None

let reduce_to_function (p : Mira_srclang.Ast.program) ~name ~cls :
    Mira_srclang.Ast.program =
  let open Mira_srclang.Ast in
  let stub (f : func) =
    if f.fname = name && f.fclass = cls then f
    else match stub_body f with Some body -> { f with fbody = body } | None -> f
  in
  {
    p with
    funcs = List.map stub p.funcs;
    classes =
      List.map
        (fun c -> { c with cmethods = List.map stub c.cmethods })
        p.classes;
  }
