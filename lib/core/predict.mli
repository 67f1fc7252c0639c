(** Performance prediction from a model and an architecture
    description (paper §III-C6: "with sophisticated setting of the
    architecture description file, Mira is able to perform more
    complicated prediction").

    A prediction combines the model's per-mnemonic counts with the
    description's per-category issue costs, clock, vector width and
    memory bandwidth into a single-core time estimate, a byte-traffic
    estimate, and the roofline verdict (compute- vs memory-bound).
    These are first-order issue-cost estimates, not simulations — the
    intended use is comparing scenarios (architectures, input sizes,
    code variants), exactly how the paper positions Mira against
    heavyweight simulators like SST. *)

type t = {
  arch : string;
  instructions : float;  (** total retired *)
  cycles : float;  (** issue-cost weighted *)
  seconds : float;  (** cycles / clock *)
  flops : float;  (** FP operations (packed count lanes) *)
  bytes : float;  (** FP memory traffic *)
  arithmetic_intensity : float;  (** flops / bytes *)
  gflops_achieved : float;  (** flops / seconds *)
  gflops_attainable : float;  (** roofline bound *)
  bound : [ `Compute | `Memory | `Balanced ];
}

val of_counts : Mira_arch.Archdesc.t -> (string * float) list -> t

val scientific : float -> string
(** Format like the paper's tables: 1.93E8 ({!Report.scientific}). *)

val compare_architectures :
  Mira_arch.Archdesc.t list -> (string * float) list -> (string * t) list
(** Predict the same workload on several machines, fastest first. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {2 Shared-memory estimates}

    Implements the paper's future-work item "extend Mira to enable
    characterization of shared-memory parallel programs": loops marked
    [#pragma @Annotation {parallel:yes}] contribute distributable
    cycles; everything else is serial.  The estimate is Amdahl-style:
    time(p) = serial + parallel/p. *)

type parallel_t = {
  p_arch : string;
  cores_used : int;
  serial_cycles : float;
  parallel_cycles : float;
  seconds_parallel : float;
  speedup : float;
  efficiency : float;
}

val parallel_estimate :
  Mira_arch.Archdesc.t ->
  ?cores:int ->
  (string * (float * float)) list ->
  parallel_t
(** Input is {!Mira_core.Model_eval.eval_split} output; [cores]
    defaults to the architecture's core count. *)

val pp_parallel : Format.formatter -> parallel_t -> unit
val parallel_to_string : parallel_t -> string
