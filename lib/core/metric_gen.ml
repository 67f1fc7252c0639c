open Mira_srclang
open Mira_srclang.Ast
open Mira_symexpr
open Mira_poly

exception Unsupported of string * Loc.pos
exception Non_affine of string

module S = Set.Make (String)

type tctx = {
  prog : program;
  func : func;
  fb : Bridge.fn_bridge;
  mutable entries : Model_ir.entry list;  (* reversed *)
  mutable warnings : string list;
  (* value propagation for int scalars: name -> polynomial in symbols *)
  mutable subst : (string * Poly.t) list;
  (* source loop-variable name -> domain variable name (uniquified) *)
  mutable lvmap : (string * string) list;
  mutable used_domain_vars : string list;
}

(* warnings accumulate in reverse (prepend is O(1); appending made a
   warning-heavy function quadratic) and are reversed once at the end
   of [build_function] *)
let warn ctx fmt =
  Format.kasprintf (fun m -> ctx.warnings <- m :: ctx.warnings) fmt

(* ---------- affine conversion ---------- *)

let rec expr_to_poly ctx (e : expr) : Poly.t =
  Mira_limits.Budget.tick ();
  match e.e with
  | Int_lit n -> Poly.of_int n
  | Var x -> (
      match List.assoc_opt x ctx.lvmap with
      | Some dv -> Poly.var dv
      | None -> (
          match List.assoc_opt x ctx.subst with
          | Some p -> p
          | None ->
              if e.ety = Some Tint then Poly.var x
              else raise (Non_affine (x ^ " is not an int scalar"))))
  | Binop (Add, a, b) -> Poly.add (expr_to_poly ctx a) (expr_to_poly ctx b)
  | Binop (Sub, a, b) -> Poly.sub (expr_to_poly ctx a) (expr_to_poly ctx b)
  | Binop (Mul, a, b) -> Poly.mul (expr_to_poly ctx a) (expr_to_poly ctx b)
  | Unop (Neg, a) -> Poly.neg (expr_to_poly ctx a)
  | Cast (Tint, a) when a.ety = Some Tint -> expr_to_poly ctx a
  | Call (f, _) -> raise (Non_affine ("call to " ^ f ^ " in static expression"))
  | Method_call (_, m, _) ->
      raise (Non_affine ("method call " ^ m ^ " in static expression"))
  | Index _ -> raise (Non_affine "array element in static expression")
  | _ -> raise (Non_affine "expression is not affine")

(* ---------- condition -> signed guard terms ---------- *)

(* A condition denotes a signed union of convex pieces: the indicator
   function is a sum of +/-1 times guard conjunctions.  Affine
   comparisons, &&, ||, !, == / != and modulo tests all reduce to this
   form (Figure 4 b/c); anything else raises Non_affine. *)
let rec cond_terms ctx (c : expr) : (int * Domain.guard list) list =
  Mira_limits.Budget.tick ();
  match c.e with
  | Binop (Lt, a, b) -> [ (1, [ cmp_guard ctx b a (-1) ]) ]
  | Binop (Le, a, b) -> [ (1, [ cmp_guard ctx b a 0 ]) ]
  | Binop (Gt, a, b) -> [ (1, [ cmp_guard ctx a b (-1) ]) ]
  | Binop (Ge, a, b) -> [ (1, [ cmp_guard ctx a b 0 ]) ]
  | Binop (Eq, a, b) -> (
      match mod_guard ctx a b with
      | Some (p, m) -> [ (1, [ Domain.Mod_eq (p, m) ]) ]
      | None ->
          let g = Poly.sub (expr_to_poly ctx a) (expr_to_poly ctx b) in
          [ (1, [ Domain.Ge g; Domain.Ge (Poly.neg g) ]) ])
  | Binop (Ne, a, b) -> (
      match mod_guard ctx a b with
      | Some (p, m) -> [ (1, [ Domain.Mod_ne (p, m) ]) ]
      | None ->
          let g = Poly.sub (expr_to_poly ctx a) (expr_to_poly ctx b) in
          (* a != b is the complement of a == b *)
          [ (1, []); (-1, [ Domain.Ge g; Domain.Ge (Poly.neg g) ]) ])
  | Binop (Land, a, b) ->
      let ta = cond_terms ctx a and tb = cond_terms ctx b in
      List.concat_map
        (fun (sa, ga) -> List.map (fun (sb, gb) -> (sa * sb, ga @ gb)) tb)
        ta
  | Binop (Lor, a, b) ->
      let ta = cond_terms ctx a and tb = cond_terms ctx b in
      let tab =
        List.concat_map
          (fun (sa, ga) -> List.map (fun (sb, gb) -> (-sa * sb, ga @ gb)) tb)
          ta
      in
      ta @ tb @ tab
  | Unop (Lnot, a) ->
      (1, []) :: List.map (fun (s, g) -> (-s, g)) (cond_terms ctx a)
  | _ -> raise (Non_affine "condition is not an affine predicate")

(* b - a + slack >= 0, i.e. a < b (slack -1) or a <= b (slack 0),
   with operands swapped by callers for > / >=. *)
and cmp_guard ctx hi lo slack =
  if hi.ety <> Some Tint || lo.ety <> Some Tint then
    raise (Non_affine "comparison on non-integer operands");
  Domain.Ge
    (Poly.add
       (Poly.sub (expr_to_poly ctx hi) (expr_to_poly ctx lo))
       (Poly.of_int slack))

(* e % m == r (or != r) shapes *)
and mod_guard ctx a b =
  match (a.e, b.e) with
  | Binop (Mod, e, { e = Int_lit m; _ }), Int_lit r when m >= 2 ->
      Some (Poly.sub (expr_to_poly ctx e) (Poly.of_int r), m)
  | Int_lit r, Binop (Mod, e, { e = Int_lit m; _ }) when m >= 2 ->
      Some (Poly.sub (expr_to_poly ctx e) (Poly.of_int r), m)
  | _ -> None

(* ---------- signed-domain context ---------- *)

type sdoms = (int * Domain.t) list

let push_level (sd : sdoms) lvl : sdoms =
  List.map (fun (s, d) -> (s, Domain.add_level d lvl)) sd

let apply_cond (sd : sdoms) (terms : (int * Domain.guard list) list) : sdoms =
  List.concat_map
    (fun (s, d) ->
      List.map
        (fun (s2, gs) -> (s * s2, List.fold_left Domain.add_guard d gs))
        terms)
    sd

let negate (sd : sdoms) : sdoms = List.map (fun (s, d) -> (-s, d)) sd

let mult_of ?(parallel = false) (sd : sdoms) (scale : float) : Model_ir.mult =
  (* signed-domain lists grow multiplicatively under nested &&/|| and
     each piece pays a symbolic count: tick per piece so pathological
     conditions burn fuel instead of time *)
  { terms =
      List.map
        (fun (s, d) ->
          Mira_limits.Budget.tick ();
          (s, Count.count d))
        sd;
    scale;
    parallel;
  }

(* ---------- entries ---------- *)

let add_update ctx ~line ~label ~counts ~mult =
  if counts <> [] then
    ctx.entries <- Model_ir.Update { line; label; counts; mult } :: ctx.entries

let fresh_domain_var ctx base =
  let rec go i =
    let name = if i = 0 then base else Printf.sprintf "%s_%d" base i in
    if List.mem name ctx.used_domain_vars then go (i + 1) else name
  in
  let name = go 0 in
  ctx.used_domain_vars <- name :: ctx.used_domain_vars;
  name

(* Collect call sites appearing anywhere in a statement's expressions. *)
let collect_calls ctx (st : stmt) (mult : Model_ir.mult) =
  let handle (e : expr) =
    let callee_and_params =
      match e.e with
      | Call (name, args) when find_func ctx.prog name <> None ->
          let f = Option.get (find_func ctx.prog name) in
          Some (name, f.fparams, args)
      | Method_call (o, m, args) -> (
          match o.ety with
          | Some (Tclass c) -> (
              match find_method ctx.prog c m with
              | Some f -> Some (mangle_method c m, f.fparams, args)
              | None -> None)
          | _ -> None)
      | _ -> None
    in
    match callee_and_params with
    | None -> ()
    | Some (callee, params, args) ->
        let line = st.sspan.lo.line in
        let bindings =
          List.concat
            (List.map2
               (fun (p : param) arg ->
                 match p.pty with
                 | Tint -> (
                     match expr_to_poly ctx arg with
                     | poly -> [ (p.pname, Model_ir.Bound poly) ]
                     | exception Non_affine _ ->
                         [ (p.pname,
                            Model_ir.Unbound (Printf.sprintf "%s_%d" p.pname line)) ])
                 | _ -> [])
               params args)
        in
        ctx.entries <-
          Model_ir.Call_site { line; callee; bindings; mult } :: ctx.entries
  in
  (* iter_exprs_of_stmt already visits every nested expression *)
  iter_exprs_of_stmt handle st

(* Track scalar propagation: declarations bind, assignments kill or
   rebind. *)
let update_subst ctx (st : stmt) =
  match st.s with
  | Decl (Tint, x, Some e) -> (
      ctx.subst <- List.remove_assoc x ctx.subst;
      match expr_to_poly ctx e with
      | p -> ctx.subst <- (x, p) :: ctx.subst
      | exception Non_affine _ -> ())
  | Decl (_, x, _) | Arr_decl (_, x, _) ->
      ctx.subst <- List.remove_assoc x ctx.subst
  | Assign ({ l = Lvar x; _ }, e) -> (
      ctx.subst <- List.remove_assoc x ctx.subst;
      if (List.assoc_opt x ctx.lvmap) = None then
        match expr_to_poly ctx e with
        | p -> ctx.subst <- (x, p) :: ctx.subst
        | exception Non_affine _ -> ())
  | Op_assign (_, { l = Lvar x; _ }, _) ->
      ctx.subst <- List.remove_assoc x ctx.subst
  | _ -> ()

(* ---------- loop SCoP extraction ---------- *)

type scop_result =
  | Affine of Domain.level
  | Pseudo of Domain.level  (* synthetic counter from annotation/fallback *)

let rec ann_poly ctx (e : expr) : Poly.t =
  (* like expr_to_poly but blind to types (annotation snippets are
     untyped) *)
  match e.e with
  | Int_lit n -> Poly.of_int n
  | Var x -> (
      match List.assoc_opt x ctx.lvmap with
      | Some dv -> Poly.var dv
      | None -> (
          match List.assoc_opt x ctx.subst with
          | Some p -> p
          | None -> Poly.var x))
  | Binop (Add, a, b) -> Poly.add (ann_poly ctx a) (ann_poly ctx b)
  | Binop (Sub, a, b) -> Poly.sub (ann_poly ctx a) (ann_poly ctx b)
  | Binop (Mul, a, b) -> Poly.mul (ann_poly ctx a) (ann_poly ctx b)
  | Unop (Neg, a) -> Poly.neg (ann_poly ctx a)
  | _ -> raise (Non_affine "annotation expression not affine")

let ann_value ctx (v : string) : Poly.t =
  (* annotation values are identifiers or expressions over symbols *)
  match int_of_string_opt v with
  | Some n -> Poly.of_int n
  | None -> (
      match Parser.parse_expr v with
      | e -> (
          try ann_poly ctx e
          with Non_affine _ ->
            raise
              (Unsupported ("annotation value not affine: " ^ v, Loc.dummy.lo)))
      | exception _ ->
          raise (Unsupported ("malformed annotation value: " ^ v, Loc.dummy.lo)))

let scop_of_for ctx (st : stmt) init (cond : expr) (step : for_step) :
    scop_result =
  let line = st.sspan.lo.line in
  let ann_init =
    List.find_map (function A_init v -> Some v | _ -> None) st.sann
  in
  let ann_cond =
    List.find_map (function A_cond v -> Some v | _ -> None) st.sann
  in
  let ann_iters =
    List.find_map (function A_iters v -> Some v | _ -> None) st.sann
  in
  match ann_iters with
  | Some v ->
      let hi =
        match Parser.parse_expr v with
        | e -> (
            try ann_poly ctx e
            with Non_affine _ ->
              warn ctx "line %d: iters annotation %S not affine; using it as a parameter" line v;
              Poly.var v)
        | exception _ -> Poly.var v
      in
      let dv = fresh_domain_var ctx (Printf.sprintf "__it%d" line) in
      Pseudo (Domain.level dv ~lo:Poly.one ~hi)
  | None -> (
      let dv = fresh_domain_var ctx init.ivar in
      let step_val =
        match step.sdelta with
        | Some d when d <> 0 -> d
        | _ ->
            warn ctx "line %d: non-constant loop step; annotate with iters" line;
            1
      in
      let lo_opt =
        match ann_init with
        | Some v -> Some (ann_value ctx v)
        | None -> (
            match expr_to_poly ctx init.iexpr with
            | p -> Some p
            | exception Non_affine why ->
                warn ctx
                  "line %d: loop initial value not static (%s); annotate with lp_init"
                  line why;
                None)
      in
      (* extract the bound from `i < e`-style conditions, in either
         operand order *)
      let bound_opt =
        match ann_cond with
        | Some v ->
            (* an annotated condition variable is an inclusive upper
               bound, as in Figure 5 *)
            Some (`Le, ann_value ctx v)
        | None -> (
            let var_is_i (e : expr) =
              match e.e with Var x -> x = init.ivar | _ -> false
            in
            match cond.e with
            | Binop (Lt, a, b) when var_is_i a -> (
                match expr_to_poly ctx b with
                | p -> Some (`Lt, p)
                | exception Non_affine why ->
                    warn ctx "line %d: loop bound not static (%s); annotate with lp_cond" line why;
                    None)
            | Binop (Le, a, b) when var_is_i a -> (
                match expr_to_poly ctx b with
                | p -> Some (`Le, p)
                | exception Non_affine why ->
                    warn ctx "line %d: loop bound not static (%s); annotate with lp_cond" line why;
                    None)
            | Binop (Gt, a, b) when var_is_i b -> (
                (* e > i *)
                match expr_to_poly ctx a with
                | p -> Some (`Lt, p)
                | exception Non_affine _ -> None)
            | Binop (Ge, a, b) when var_is_i b -> (
                match expr_to_poly ctx a with
                | p -> Some (`Le, p)
                | exception Non_affine _ -> None)
            | Binop (Gt, a, b) when var_is_i a && step_val < 0 -> (
                (* decreasing loop: i > e *)
                match expr_to_poly ctx b with
                | p -> Some (`Down_gt, p)
                | exception Non_affine _ -> None)
            | Binop (Ge, a, b) when var_is_i a && step_val < 0 -> (
                match expr_to_poly ctx b with
                | p -> Some (`Down_ge, p)
                | exception Non_affine _ -> None)
            | _ ->
                warn ctx
                  "line %d: unrecognized loop condition shape; annotate with lp_cond or iters"
                  line;
                None)
      in
      match (lo_opt, bound_opt) with
      | Some lo, Some (`Lt, b) when step_val > 0 ->
          Affine (Domain.level ~step:step_val dv ~lo ~hi:(Poly.sub b Poly.one))
      | Some lo, Some (`Le, b) when step_val > 0 ->
          Affine (Domain.level ~step:step_val dv ~lo ~hi:b)
      | Some hi, Some (`Down_gt, b) when step_val = -1 ->
          Affine (Domain.level dv ~lo:(Poly.add b Poly.one) ~hi)
      | Some hi, Some (`Down_ge, b) when step_val = -1 ->
          Affine (Domain.level dv ~lo:b ~hi)
      | _ ->
          if step_val < -1 then
            warn ctx "line %d: decreasing loop with |step| > 1 is not modeled; using a parameter" line;
          let p = Printf.sprintf "iters_%d" line in
          warn ctx "line %d: loop modeled by parameter %s" line p;
          let dvp = fresh_domain_var ctx (Printf.sprintf "__it%d" line) in
          Pseudo (Domain.level dvp ~lo:Poly.one ~hi:(Poly.var p)))

(* ---------- the walk ---------- *)

let has_skip st = List.mem A_skip st.sann
let has_parallel st = List.mem A_parallel st.sann

let fraction_of st =
  List.find_map (function A_fraction f -> Some f | _ -> None) st.sann

let rec walk ctx ?(par = false) (sd : sdoms) (scale : float)
    (stmts : stmt list) =
  List.iter (walk_stmt ctx ~par sd scale) stmts

(* Claim a condition's instructions respecting short-circuit
   evaluation: in `a && b`, b's comparison only executes where a
   holds; in `a || b`, only where a fails. *)
and claim_cond ctx ~par (sd : sdoms) (scale : float) ~line (c : expr) =
  match c.e with
  | Binop (Land, a, b) ->
      claim_cond ctx ~par sd scale ~line a;
      let sd_b =
        match cond_terms ctx a with
        | terms -> apply_cond sd terms
        | exception Non_affine _ -> sd  (* approximation *)
      in
      claim_cond ctx ~par sd_b scale ~line b
  | Binop (Lor, a, b) ->
      claim_cond ctx ~par sd scale ~line a;
      let sd_b =
        match cond_terms ctx a with
        | terms -> sd @ negate (apply_cond sd terms)
        | exception Non_affine _ -> sd
      in
      claim_cond ctx ~par sd_b scale ~line b
  | Unop (Lnot, a) -> claim_cond ctx ~par sd scale ~line a
  | _ ->
      let counts = Bridge.claim_span ctx.fb c.espan in
      add_update ctx ~line ~label:"if-cond" ~counts
        ~mult:(mult_of ~parallel:par sd scale)

and walk_stmt ctx ~par (sd : sdoms) (scale : float) (st : stmt) =
  Mira_limits.Budget.tick ();
  let line = st.sspan.lo.line in
  if has_skip st then
    (* claim and drop: excluded from the model, as §III-C4 *)
    ignore (Bridge.claim_span ctx.fb st.sspan)
  else
    match st.s with
    | Decl _ | Arr_decl _ | Assign _ | Op_assign _ | Expr_stmt _ | Return _ ->
        let mult = mult_of ~parallel:par sd scale in
        let counts = Bridge.claim_span ctx.fb st.sspan in
        add_update ctx ~line ~label:"stmt" ~counts ~mult;
        collect_calls ctx st mult;
        update_subst ctx st
    | Block body -> walk ctx ~par sd scale body
    | If { cond; then_; else_ } -> (
        let visit_mult = mult_of ~parallel:par sd scale in
        claim_cond ctx ~par sd scale ~line cond;
        collect_calls ctx st visit_mult;
        match fraction_of st with
        | Some f ->
            walk ctx ~par sd (scale *. f) then_;
            walk ctx ~par sd (scale *. (1.0 -. f)) else_
        | None -> (
            match cond_terms ctx cond with
            | terms ->
                let then_sd = apply_cond sd terms in
                walk ctx ~par then_sd scale then_;
                if else_ <> [] then
                  walk ctx ~par (sd @ negate then_sd) scale else_
            | exception Non_affine why ->
                warn ctx
                  "line %d: branch condition not statically analyzable (%s); \
                   assuming always taken — annotate with fraction"
                  line why;
                walk ctx ~par sd scale then_;
                if else_ <> [] then walk ctx ~par sd 0.0 else_))
    | For { init; cond; step; body } -> (
        (* a {parallel:yes} loop distributes everything from its
           condition inward; the init remains serial *)
        let par_here = par || has_parallel st in
        let outer_mult = mult_of ~parallel:par sd scale in
        let init_counts = Bridge.claim_span ctx.fb init.ispan in
        add_update ctx ~line ~label:"loop-init" ~counts:init_counts
          ~mult:outer_mult;
        let scop = scop_of_for ctx st init cond step in
        let level =
          match scop with Affine l | Pseudo l -> l
        in
        let saved_lvmap = ctx.lvmap in
        let saved_subst = ctx.subst in
        (match scop with
        | Affine l -> ctx.lvmap <- (init.ivar, l.Domain.var) :: ctx.lvmap
        | Pseudo _ ->
            (* the source index is opaque inside the body *)
            ctx.subst <- List.remove_assoc init.ivar ctx.subst);
        let inner_sd = push_level sd level in
        (* condition: once per iteration plus the final failing test *)
        let cond_counts = Bridge.claim_span ctx.fb cond.espan in
        add_update ctx ~line ~label:"loop-cond" ~counts:cond_counts
          ~mult:(mult_of ~parallel:par_here (inner_sd @ sd) scale);
        let step_counts = Bridge.claim_span ctx.fb step.stspan in
        add_update ctx ~line ~label:"loop-step" ~counts:step_counts
          ~mult:(mult_of ~parallel:par_here inner_sd scale);
        walk ctx ~par:par_here inner_sd scale body;
        ctx.lvmap <- saved_lvmap;
        (* drop propagation facts established inside the loop: they do
           not necessarily hold after it *)
        ctx.subst <- saved_subst)
    | While (cond, body) ->
        let line = st.sspan.lo.line in
        let hi =
          match
            List.find_map (function A_iters v -> Some v | _ -> None) st.sann
          with
          | Some v -> (
              match Parser.parse_expr v with
              | e -> (
                  try ann_poly ctx e with Non_affine _ -> Poly.var v)
              | exception _ -> Poly.var v)
          | None ->
              let p = Printf.sprintf "iters_%d" line in
              warn ctx
                "line %d: while loop has no static trip count; modeled by \
                 parameter %s (annotate with iters)"
                line p;
              Poly.var p
        in
        let dv = fresh_domain_var ctx (Printf.sprintf "__wh%d" line) in
        let level = Domain.level dv ~lo:Poly.one ~hi in
        let inner_sd = push_level sd level in
        let par_here = par || has_parallel st in
        let cond_counts = Bridge.claim_span ctx.fb cond.espan in
        add_update ctx ~line ~label:"loop-cond" ~counts:cond_counts
          ~mult:(mult_of ~parallel:par_here (inner_sd @ sd) scale);
        let saved_subst = ctx.subst in
        walk ctx ~par:par_here inner_sd scale body;
        ctx.subst <- saved_subst

(* ---------- model parameters ---------- *)

(* The variables of the function's own multiplicities.  Call-site
   bindings are left to [compute_params]: a binding is read only when
   the callee's model reads the parameter it binds. *)
let local_free_vars (entries : Model_ir.entry list) =
  List.fold_left
    (fun s e ->
      match e with
      | Model_ir.Update { mult; _ } | Model_ir.Call_site { mult; _ } ->
          List.fold_left (fun s v -> S.add v s) s
            (Model_ir.free_vars_of_mult mult))
    S.empty entries

(* What one function contributes to the model, before the
   whole-program parameter fixpoint: everything here is computable
   from the function and its analysis closure alone, which is what
   makes parts cacheable per function digest (see
   {!Mira_srclang.Fingerprint}). *)
type part = {
  fp_name : string;  (* mangled *)
  fp_source_params : string list;
  fp_arity : int;
  fp_class : string option;
  fp_entries : Model_ir.entry list;
  fp_warnings : string list;
  fp_free : string list;
      (* [local_free_vars fp_entries], precomputed: the entry lists
         carry the multiplicity expressions, which can run to hundreds
         of kilobytes for deep dependent nests, and the parameter
         fixpoint at assembly must not re-walk them on every
         incremental reanalysis *)
}

(* Fixpoint over the call graph: for each parameter of a callee's
   model, a caller reads the variables of the call site's binding, or
   inherits the parameter itself when the call site leaves it unbound.
   The result is exactly the set of names each model reads. *)
let compute_params (fns : part list) : (string * string list) list =
  let params = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace params p.fp_name (S.of_list p.fp_free))
    fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun { fp_name = name; fp_entries = entries; _ } ->
        let mine = Hashtbl.find params name in
        let extra =
          List.fold_left
            (fun acc e ->
              match e with
              | Model_ir.Call_site { callee; bindings; _ } -> (
                  match Hashtbl.find_opt params callee with
                  | None -> acc
                  | Some callee_params ->
                      S.fold
                        (fun p acc ->
                          match List.assoc_opt p bindings with
                          | Some (Model_ir.Bound poly) ->
                              List.fold_left
                                (fun acc v -> S.add v acc)
                                acc (Poly.vars poly)
                          | Some (Model_ir.Unbound name) -> S.add name acc
                          | None -> S.add p acc)
                        callee_params acc)
              | Model_ir.Update _ -> acc)
            S.empty entries
        in
        let merged = S.union mine extra in
        if not (S.equal merged mine) then begin
          Hashtbl.replace params name merged;
          changed := true
        end)
      fns
  done;
  List.map
    (fun p ->
      let s = Hashtbl.find params p.fp_name in
      (* stable order: source parameters first, then the rest sorted *)
      let src = List.filter (fun pname -> S.mem pname s) p.fp_source_params in
      let rest =
        S.elements (S.diff s (S.of_list src)) |> List.sort compare
      in
      (p.fp_name, src @ rest))
    fns

(* ---------- entry point ---------- *)

let build_function prog bridge (f : func) : Model_ir.entry list * string list =
  let name = mangle f in
  let fb = Bridge.fn_exn bridge name in
  Bridge.reset fb;
  let ctx =
    {
      prog;
      func = f;
      fb;
      entries = [];
      warnings = [];
      subst = [];
      lvmap = [];
      used_domain_vars = [];
    }
  in
  let sd0 = [ (1, Domain.empty) ] in
  walk ctx sd0 1.0 f.fbody;
  (* prologue, epilogue and anything unclaimed: once per invocation *)
  let rest = Bridge.claim_rest fb in
  add_update ctx ~line:f.fspan.lo.line ~label:"overhead" ~counts:rest
    ~mult:Model_ir.mult_one;
  (List.rev ctx.entries, List.rev ctx.warnings)

let build_part (prog : program) (bridge : Bridge.t) (f : func) : part =
  let entries, warnings = build_function prog bridge f in
  {
    fp_name = mangle f;
    fp_source_params = List.map (fun (p : param) -> p.pname) f.fparams;
    fp_arity = List.length f.fparams;
    fp_class = f.fclass;
    fp_entries = entries;
    fp_warnings = warnings;
    fp_free = S.elements (local_free_vars entries);
  }

(* The parameter fixpoint runs at assembly time over the parts —
   cached or fresh — so an assembled model is byte-identical to a
   whole-file build by construction. *)
let assemble ~source_name (parts : part list) : Model_ir.t =
  let params = compute_params parts in
  let functions =
    List.map
      (fun p ->
        {
          Model_ir.mf_name = p.fp_name;
          mf_source_params = p.fp_source_params;
          mf_arity = p.fp_arity;
          mf_class = p.fp_class;
          mf_params = List.assoc p.fp_name params;
          mf_entries = p.fp_entries;
          mf_warnings = p.fp_warnings;
        })
      parts
  in
  { Model_ir.functions; source_name }
