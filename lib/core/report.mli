(** Reporting: categorized instruction counts (Table II), instruction
    distribution (Figure 6), and instruction-based arithmetic
    intensity with a roofline estimate (§IV-D2). *)

val categorize :
  Mira_arch.Archdesc.t -> (string * float) list -> (string * float) list
(** Per-mnemonic counts -> per-display-group counts (group order of
    the architecture description; zero groups included). *)

val table2 : Mira_arch.Archdesc.t -> (string * float) list -> string
(** Render categorized counts in the shape of Table II. *)

val distribution : Mira_arch.Archdesc.t -> (string * float) list -> string
(** ASCII rendering of Figure 6: percentage per category with bars. *)

val arithmetic_intensity :
  Mira_arch.Archdesc.t -> (string * float) list -> float
(** SSE2 packed arithmetic / SSE2 data movement — the paper's
    instruction-based arithmetic-intensity example (0.53 for
    cg_solve). *)

val roofline_gflops :
  Mira_arch.Archdesc.t -> (string * float) list -> float
(** Attainable GFLOP/s estimate: min(peak, byte-based AI × bandwidth),
    taking 8 bytes per scalar FP move and counting FP arithmetic
    instructions as flops (packed ones as vector-lane multiples) —
    {!Predict.of_counts}'s [gflops_attainable]. *)

val scientific : float -> string
(** Format like the paper's tables: 1.93E8. *)
