(** The Model Generator back-end (paper §III-C, Figure 5): renders a
    model as executable Python.

    Each source function becomes a Python function named
    [Class_name_arity] (e.g. [A_foo_2]) whose parameters are the model
    parameters; its body accumulates per-mnemonic counts in a dict and
    splices callees with [handle_function_call(caller, callee, iters)].
    The emitted text is runnable by CPython and by the bundled
    mini-Python interpreter, which the test suite uses to check it
    against {!Model_eval}. *)

val emit : Model_ir.t -> string
(** The whole model as a Python module. *)

val emit_function : Model_ir.t -> string -> string
(** One function's Python definition (by mangled name).
    @raise Invalid_argument on unknown names. *)

val update_chunk : Model_ir.entry -> string option
(** The rendered Python of one [Update] entry ([None] for a
    [Call_site], whose text depends on the assembled model).  Pure in
    the entry, so {!Metric_gen.build_part} precomputes it and a
    cache-served function is emitted by splicing stored text instead
    of re-rendering its multiplicity expressions. *)
