(** Lowering from the (typechecked) mini-C AST to the virtual ISA.

    Every emitted instruction is stamped with the source position of
    the construct it implements; loop init / condition / step get the
    positions of those sub-expressions specifically, so the
    [.debug_line] section lets Mira attribute loop-control overhead
    with the right multiplicities (init once, condition n+1, step n). *)

exception Error of string * Mira_srclang.Loc.pos

val program :
  ?addressing_fold:bool -> Mira_srclang.Ast.program -> Mira_visa.Program.t
(** [addressing_fold] (default true) folds constant offsets and index
    registers into memory operands instead of materializing address
    arithmetic; disabled at [-O0].

    The input program must have passed {!Mira_srclang.Typecheck}.
    @raise Error on constructs the backend does not support. *)

