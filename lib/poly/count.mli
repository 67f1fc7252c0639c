(** Parametric lattice-point counting.

    [count t] attempts to produce a closed-form symbolic expression in
    the domain parameters for the number of integer points in [t].
    Rectangular and triangular affine nests give polynomials
    (Faulhaber summation); affine guards and [max]/[min] clipping are
    resolved by splitting summation intervals at their breakpoints;
    lattice guards on the innermost variable produce floor/ceiling
    divisions; everything else falls back to {!Enumerate} at
    evaluation time ([Deferred]).

    A guarded domain whose levels split into independent groups is
    counted one group at a time.  Two levels share a group when a bound
    of one names the other's variable, or when a guard names both; a
    guard that names only parameters joins no group.  The count is
    then the product of the groups' counts, innermost group first, so
    a stencil's bounds checks on each axis give one factor per axis
    instead of repeating every interval split of one axis under every
    split of the others.  If any group cannot be counted, the whole
    domain is [Deferred].

    Counting follows the paper's convention that source loop ranges
    are non-empty as written: the polyhedral model of §III-C2
    multiplies counts without emptiness guards.  This is a constant,
    not an option; only the pieces of a range split at a guard's
    breakpoint, which may be empty, are guarded. *)

open Mira_symexpr

type result = Closed of Expr.t | Deferred of Domain.t

val count : Domain.t -> result

val eval : params:(string * int) list -> result -> int
(** Evaluate a count for concrete parameter values, enumerating if the
    count was deferred. *)

val eval_float : params:(string * float) list -> result -> float
(** Approximate evaluation; deferred counts require integral
    parameters and are enumerated. *)

val expr : result -> Expr.t option
val pp : Format.formatter -> result -> unit
