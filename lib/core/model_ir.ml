(* The performance-model intermediate representation.

   A model is a set of per-function bodies mirroring the generated
   Python of the paper's Figure 5: each function accumulates
   per-mnemonic instruction counts, where every contribution is a
   static count vector times a symbolic execution multiplicity, plus
   call sites that splice in callee models with argument bindings.
   The model holds no rendered text: {!Python_emit} renders it on
   demand. *)

open Mira_symexpr
open Mira_poly

(* A signed combination of domain counts times a scalar weight.  Plain
   statements have one +1 term; else-branches of affine conditions and
   complements contribute negative terms; `fraction` annotations set
   [scale] below 1. *)
type mult = {
  terms : (int * Count.result) list;  (* (sign, count) *)
  scale : float;
  parallel : bool;
      (* inside a {parallel:yes} loop: distributable across cores
         (shared-memory extension, the paper's future work) *)
}

let mult_one =
  { terms = [ (1, Count.Closed Expr.one) ]; scale = 1.0; parallel = false }

(* Binding of one callee model parameter at a call site. *)
type arg_binding =
  | Bound of Poly.t
      (* affine/polynomial in the caller's symbols; evaluated in the
         caller's environment *)
  | Unbound of string
      (* opaque at the call site: becomes the given caller parameter
         (paper's y_16 pattern: value supplied at evaluation time) *)

type entry =
  | Update of {
      line : int;  (* source line, for readable models *)
      label : string;  (* what this bucket is: statement, loop cond, ... *)
      counts : (string * int) list;  (* mnemonic -> static count *)
      mult : mult;
    }
  | Call_site of {
      line : int;
      callee : string;  (* mangled name *)
      bindings : (string * arg_binding) list;
          (* callee model parameter -> binding *)
      mult : mult;
    }

type fmodel = {
  mf_name : string;  (* mangled source name *)
  mf_source_params : string list;  (* source-level parameter names *)
  mf_arity : int;  (* source arity (for the Python name suffix) *)
  mf_class : string option;
  mf_params : string list;  (* model parameters, in signature order *)
  mf_entries : entry list;
  mf_warnings : string list;
}

type t = {
  functions : fmodel list;
  source_name : string;  (* provenance, for reports *)
}

let find t name = List.find_opt (fun f -> f.mf_name = name) t.functions

let find_exn t name =
  match find t name with
  | Some f -> f
  | None -> invalid_arg ("Model_ir.find_exn: no model for " ^ name)

(* Python-side function name, as in Figure 5: A_foo_2. *)
let python_name (f : fmodel) =
  let short =
    match String.rindex_opt f.mf_name ':' with
    | Some i -> String.sub f.mf_name (i + 1) (String.length f.mf_name - i - 1)
    | None -> f.mf_name
  in
  let prefix = match f.mf_class with Some c -> c ^ "_" | None -> "" in
  Printf.sprintf "%s%s_%d" prefix short f.mf_arity

let free_vars_of_mult m =
  List.concat_map
    (fun (_, c) ->
      match c with
      | Count.Closed e -> Expr.vars e
      | Count.Deferred d -> Domain.parameters d)
    m.terms

let all_warnings t =
  List.concat_map
    (fun f -> List.map (fun w -> (f.mf_name, w)) f.mf_warnings)
    t.functions
