(** The Model Generator back-end (paper §III-C, Figure 5): renders a
    model as executable Python.

    Each source function becomes a Python function named
    [Class_name_arity] (e.g. [A_foo_2]) whose parameters are the model
    parameters; its body accumulates per-mnemonic counts in a dict and
    splices callees with [handle_function_call(caller, callee, iters)].
    The emitted text is runnable by CPython and by the bundled
    mini-Python interpreter, which the test suite uses to check it
    against {!Model_eval}.

    Python is a view of the model: parts and models store none, so
    each call renders the whole model anew.  A count with no closed
    form ([Count.Deferred], which {!Model_eval} enumerates)
    contributes [0] to the Python; ROADMAP item 2 owns the fix. *)

val emit : Model_ir.t -> string
(** The whole model as a Python module. *)

val emit_function : Model_ir.t -> string -> string
(** One function's Python definition (by mangled name).
    @raise Invalid_argument on unknown names. *)
