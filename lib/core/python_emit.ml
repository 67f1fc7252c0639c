open Mira_symexpr
open Mira_poly

let mult_py (m : Model_ir.mult) : string =
  let term (sign, c) =
    let body =
      match c with
      | Count.Closed e -> Printf.sprintf "(%s)" (Expr.to_python e)
      | Count.Deferred _ ->
          (* Closed form unavailable (e.g. parametric lattice
             constraints): the OCaml evaluator enumerates; the Python
             rendering contributes 0 and the entry's comment flags
             it. *)
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

let prologue source =
  Printf.sprintf
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

(* The rendering of an [Update] entry depends on nothing but the entry
   itself — unlike [Call_site] lines, which splice in the callee's
   fixpoint parameters.  That makes these chunks cacheable alongside
   the entries (see {!Metric_gen.part}): for a function served from
   the incremental cache, emission degrades to splicing stored
   strings instead of re-walking very large multiplicity
   expressions. *)
let update_chunk (entry : Model_ir.entry) : string option =
  match entry with
  | Model_ir.Call_site _ -> None
  | Model_ir.Update { line = src_line; label; counts; mult } ->
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Printf.sprintf "    # line %d (%s)\n" src_line label);
      let m = mult_py mult in
      List.iter
        (fun (mn, c) ->
          if c = 1 then
            Buffer.add_string b (Printf.sprintf "    bump(m, %S, " mn)
          else Buffer.add_string b (Printf.sprintf "    bump(m, %S, %d * (" mn c);
          Buffer.add_string b m;
          if c = 1 then Buffer.add_string b ")\n"
          else Buffer.add_string b "))\n")
        counts;
      Some (Buffer.contents b)

let emit_fmodel (model : Model_ir.t) (fm : Model_ir.fmodel) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  List.iter (fun w -> line "# warning: %s" w) fm.mf_warnings;
  line "def %s(%s):" (Model_ir.python_name fm)
    (String.concat ", " (List.map Poly.python_var fm.mf_params));
  line "    m = {}";
  let chunks =
    (* in lockstep with mf_entries by construction; re-render if a
       hand-built model didn't populate the cache *)
    if List.length fm.mf_update_py = List.length fm.mf_entries then
      fm.mf_update_py
    else List.map update_chunk fm.mf_entries
  in
  List.iter2
    (fun entry chunk ->
      match entry with
      | Model_ir.Update _ -> (
          match chunk with
          | Some c -> Buffer.add_string b c
          | None -> Option.iter (Buffer.add_string b) (update_chunk entry))
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
              Buffer.add_string b
                (Printf.sprintf "    handle_function_call(m, %s(%s), "
                   (Model_ir.python_name cm)
                   (String.concat ", " args));
              Buffer.add_string b (mult_py mult);
              Buffer.add_string b ")\n"))
    fm.mf_entries chunks;
  line "    return m";
  Buffer.contents b

let emit_function model name =
  emit_fmodel model (Model_ir.find_exn model name)

let emit (model : Model_ir.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (prologue model.source_name);
  List.iter
    (fun fm ->
      Buffer.add_char b '\n';
      Buffer.add_string b (emit_fmodel model fm))
    model.functions;
  Buffer.contents b
