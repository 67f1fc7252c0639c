(** Multivariate polynomials with rational coefficients.

    Variables are named by strings (model parameters and loop
    indices).  Polynomials are kept in a canonical sparse normal form,
    so structural equality coincides with mathematical equality. *)

type t

module Monomial : sig
  type t = (string * int) list
  (** Sorted by variable name; exponents are [>= 1]. The empty list is
      the unit monomial. *)

  val compare : t -> t -> int
  val degree : t -> int
end

val zero : t
val one : t
val const : Ratio.t -> t
val of_int : int -> t
val var : string -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val scale : Ratio.t -> t -> t
val pow : t -> int -> t

val sum : t list -> t
val product : t list -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val is_zero : t -> bool
val to_const : t -> Ratio.t option
(** [Some c] iff the polynomial is the constant [c]. *)

val degree : t -> int
val degree_in : string -> t -> int
val vars : t -> string list
(** Variables occurring with nonzero coefficient, sorted. *)

val coeffs_in : string -> t -> t array
(** [coeffs_in x p] views [p] as a univariate polynomial in [x]:
    element [k] is the coefficient (a polynomial not containing [x])
    of [x^k].  The array has length [degree_in x p + 1]. *)

val subst : string -> t -> t -> t
(** [subst x q p] replaces every occurrence of variable [x] in [p] by
    the polynomial [q]. *)

val eval : (string -> Ratio.t) -> t -> Ratio.t
(** @raise Not_found (or whatever the lookup raises) for unbound
    variables. *)

val fold_terms : (Monomial.t -> Ratio.t -> 'a -> 'a) -> t -> 'a -> 'a

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val python_var : string -> string
(** A variable's name in emitted Python.  Names the emitted model binds
    itself ([m], [bump], [handle_function_call], [max], [min]) and
    Python keywords, bare or followed by underscores, get one more
    [_]; every other name is unchanged.  The map is injective. *)

val to_python : t -> string
(** Render as a Python expression, e.g. ["3*n**2/2 + n/2"], variables
    named by {!python_var}. *)

val add_python : Buffer.t -> t -> unit
(** [to_python] rendered straight into a buffer — polynomials are the
    leaves of {!Expr} towers, and avoiding one intermediate string per
    leaf keeps large-model emission linear. *)
