(** Compiler driver: mini-C source/AST → virtual-ISA program or
    object bytes.

    Optimization levels:
    - [O0]: naive lowering — no constant folding, no addressing-mode
      folding, no peephole.  Source operation counts and binary
      instruction counts track each other closely.
    - [O1] (default): AST constant folding, strength reduction,
      addressing-mode folding, peephole cleanup.  Binary counts
      diverge from naive source counts — the regime where Mira's
      binary-aware analysis beats source-only estimation (PBound).
    - [O2]: [O1] plus 2-wide vectorization of eligible innermost
      loops ({!Vectorize}); changes loop trip counts and is used by
      the ablation benchmark on bridging hazards. *)

type level = O0 | O1 | O2

exception Error of string * Mira_srclang.Loc.pos

val compile_ast :
  ?level:level -> Mira_srclang.Ast.program -> Mira_visa.Program.t
(** Typechecks, folds (per [level]), lowers, cleans up.
    @raise Error on unsupported constructs.
    @raise Failure if the program does not typecheck. *)

val compile : ?level:level -> string -> Mira_visa.Program.t
(** Parse and compile mini-C source text. *)

val compile_to_object : ?level:level -> string -> string
(** Source text → encoded object file bytes. *)

val reduce_to_function :
  Mira_srclang.Ast.program -> name:string -> cls:string option ->
  Mira_srclang.Ast.program
(** Stub the body of every function except the one matching
    [(name, cls)] ([cls] is the enclosing class for methods).
    Signatures, classes and externs are preserved, so compiling the
    reduced program yields instructions for the kept function that are
    identical (as mnemonic streams with source positions) to a
    whole-file compilation. *)
