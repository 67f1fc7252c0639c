open Mira_symexpr
open Mira_poly

let mult_py (m : Model_ir.mult) : string =
  let term (sign, c) =
    let body =
      match c with
      | Count.Closed e -> Printf.sprintf "(%s)" (Expr.to_python e)
      | Count.Deferred _ ->
          (* Closed form unavailable (e.g. parametric lattice
             constraints): the OCaml evaluator enumerates, but the
             Python rendering contributes 0, unflagged (ROADMAP item
             2 owns the fix). *)
          "(0)"
    in
    if sign >= 0 then "+ " ^ body else "- " ^ body
  in
  let sum = String.concat " " (List.map term m.terms) in
  let sum =
    (* strip a leading "+ " *)
    if String.length sum >= 2 && String.sub sum 0 2 = "+ " then
      String.sub sum 2 (String.length sum - 2)
    else "(0 " ^ sum ^ ")"
  in
  if m.scale = 1.0 then sum else Printf.sprintf "%g * (%s)" m.scale sum

let add_prologue b source =
  Printf.bprintf b
    {|# Performance model generated by Mira from %s
# Evaluate a function to obtain its per-instruction-category counts
# for one invocation; parameters preserve statically-unknown values
# (loop bounds from inputs, annotation variables).

def handle_function_call(caller, callee, iters):
    for k in callee:
        caller[k] = caller.get(k, 0) + callee[k] * iters
    return caller

def bump(m, k, c):
    m[k] = m.get(k, 0) + c
    return m
|}
    source

(* One function's definition, appended to [b].  An [Update] renders
   its multiplicity once and scales it per mnemonic; a [Call_site]
   splices in the callee's fixpoint parameters. *)
let add_fmodel b (model : Model_ir.t) (fm : Model_ir.fmodel) =
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  List.iter (fun w -> line "# warning: %s" w) fm.mf_warnings;
  line "def %s(%s):" (Model_ir.python_name fm)
    (String.concat ", " (List.map Poly.python_var fm.mf_params));
  line "    m = {}";
  List.iter
    (function
      | Model_ir.Update { line = src_line; label; counts; mult } ->
          line "    # line %d (%s)" src_line label;
          let m = mult_py mult in
          List.iter
            (fun (mn, c) ->
              if c = 1 then line "    bump(m, %S, %s)" mn m
              else line "    bump(m, %S, %d * (%s))" mn c m)
            counts
      | Model_ir.Call_site { line = src_line; callee; bindings; mult } -> (
          match Model_ir.find model callee with
          | None -> line "    # line %d: external call %s (body not modeled)" src_line callee
          | Some cm ->
              let args =
                List.map
                  (fun p ->
                    match List.assoc_opt p bindings with
                    | Some (Model_ir.Bound poly) -> Poly.to_python poly
                    | Some (Model_ir.Unbound name) -> Poly.python_var name
                    | None -> Poly.python_var p)
                  cm.mf_params
              in
              line "    # line %d: call %s" src_line callee;
              line "    handle_function_call(m, %s(%s), %s)"
                (Model_ir.python_name cm)
                (String.concat ", " args)
                (mult_py mult)))
    fm.mf_entries;
  line "    return m"

let emit_function model name =
  let b = Buffer.create 1024 in
  add_fmodel b model (Model_ir.find_exn model name);
  Buffer.contents b

let emit (model : Model_ir.t) =
  let b = Buffer.create 4096 in
  add_prologue b model.source_name;
  List.iter
    (fun fm ->
      Buffer.add_char b '\n';
      add_fmodel b model fm)
    model.functions;
  Buffer.contents b
