open Ast

type error = { msg : string; at : Loc.pos }

let pp_error ppf e = Format.fprintf ppf "%a: %s" Loc.pp_pos e.at e.msg

type env = {
  prog : program;
  mutable scopes : (string, ty) Hashtbl.t list;
  current_class : class_decl option;
  mutable errors : error list;
  ret : ty;
}

let error env at fmt =
  Format.kasprintf
    (fun msg -> env.errors <- { msg; at } :: env.errors)
    fmt

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env = env.scopes <- List.tl env.scopes

let bind env name ty =
  match env.scopes with
  | [] -> assert false
  | s :: _ -> Hashtbl.replace s name ty

let lookup env name =
  let rec go = function
    | [] -> None
    | s :: rest -> (
        match Hashtbl.find_opt s name with Some t -> Some t | None -> go rest)
  in
  match go env.scopes with
  | Some t -> Some t
  | None -> (
      match env.current_class with
      | Some c -> (
          match List.find_opt (fun f -> f.pname = name) c.cfields with
          | Some f -> Some f.pty
          | None -> None)
      | None -> None)

let is_numeric = function Tint | Tdouble -> true | _ -> false

(* Implicit widening: int may flow into double. *)
let compatible ~expected ~actual =
  expected = actual || (expected = Tdouble && actual = Tint)

let signature_of env name =
  match find_func env.prog name with
  | Some f -> Some (f.fret, List.map (fun p -> p.pty) f.fparams)
  | None -> (
      match find_extern env.prog name with
      | Some x -> Some (x.xret, x.xparams)
      | None -> None)

let rec infer env (e : expr) : ty =
  let t = infer_desc env e in
  e.ety <- Some t;
  t

and infer_desc env e =
  let at = e.espan.lo in
  match e.e with
  | Int_lit _ -> Tint
  | Float_lit _ -> Tdouble
  | Var x -> (
      match lookup env x with
      | Some t -> t
      | None ->
          error env at "unbound variable %s" x;
          Tint)
  | Index (a, i) -> (
      let ta = infer env a in
      let ti = infer env i in
      if ti <> Tint then error env at "array index must be int, got %s" (ty_to_string ti);
      match ta with
      | Tarr t -> t
      | t ->
          error env at "indexing non-array of type %s" (ty_to_string t);
          Tint)
  | Field (o, f) -> (
      match infer env o with
      | Tclass c -> (
          match List.find_opt (fun cd -> cd.cname = c) env.prog.classes with
          | None ->
              error env at "unknown class %s" c;
              Tint
          | Some cd -> (
              match List.find_opt (fun p -> p.pname = f) cd.cfields with
              | Some p -> p.pty
              | None ->
                  error env at "class %s has no field %s" c f;
                  Tint))
      | t ->
          error env at "field access on non-class type %s" (ty_to_string t);
          Tint)
  | Call (name, args) -> (
      match signature_of env name with
      | None ->
          error env at "unknown function %s" name;
          List.iter (fun a -> ignore (infer env a)) args;
          Tint
      | Some (ret, ptys) ->
          check_args env at name ptys args;
          ret)
  | Method_call (o, m, args) -> (
      match infer env o with
      | Tclass c -> (
          match find_method env.prog c m with
          | None ->
              error env at "class %s has no method %s" c m;
              Tint
          | Some f ->
              check_args env at (mangle_method c m)
                (List.map (fun p -> p.pty) f.fparams)
                args;
              f.fret)
      | t ->
          error env at "method call on non-class type %s" (ty_to_string t);
          Tint)
  | Binop (op, a, b) -> (
      let ta = infer env a and tb = infer env b in
      match op with
      | Add | Sub | Mul | Div ->
          if not (is_numeric ta && is_numeric tb) then
            error env at "arithmetic on non-numeric types %s, %s"
              (ty_to_string ta) (ty_to_string tb);
          if ta = Tdouble || tb = Tdouble then Tdouble else Tint
      | Mod ->
          if ta <> Tint || tb <> Tint then
            error env at "%% requires int operands";
          Tint
      | Lt | Le | Gt | Ge | Eq | Ne ->
          if not (is_numeric ta && is_numeric tb) then
            error env at "comparison on non-numeric types";
          Tint
      | Land | Lor ->
          if ta <> Tint || tb <> Tint then
            error env at "logical operator requires int operands";
          Tint)
  | Unop (Neg, a) ->
      let t = infer env a in
      if not (is_numeric t) then error env at "negation of non-numeric type";
      t
  | Unop (Lnot, a) ->
      if infer env a <> Tint then error env at "! requires int operand";
      Tint
  | Cast (t, a) ->
      let ta = infer env a in
      if not (is_numeric ta) then error env at "cast of non-numeric type";
      t

and check_args env at name ptys args =
  if List.length ptys <> List.length args then
    error env at "%s expects %d arguments, got %d" name (List.length ptys)
      (List.length args)
  else
    List.iteri
      (fun i (pty, arg) ->
        let t = infer env arg in
        if not (compatible ~expected:pty ~actual:t) then
          error env at "argument %d of %s: expected %s, got %s" (i + 1) name
            (ty_to_string pty) (ty_to_string t))
      (List.combine ptys args)

let rec infer_lvalue env (lv : lvalue) : ty =
  let at = lv.lspan.lo in
  match lv.l with
  | Lvar x -> (
      match lookup env x with
      | Some t -> t
      | None ->
          error env at "unbound variable %s" x;
          Tint)
  | Lindex (l, i) -> (
      let tl = infer_lvalue env l in
      if infer env i <> Tint then error env at "array index must be int";
      match tl with
      | Tarr t -> t
      | t ->
          error env at "indexing non-array of type %s" (ty_to_string t);
          Tint)
  | Lfield (l, f) -> (
      match infer_lvalue env l with
      | Tclass c -> (
          match List.find_opt (fun cd -> cd.cname = c) env.prog.classes with
          | Some cd -> (
              match List.find_opt (fun p -> p.pname = f) cd.cfields with
              | Some p -> p.pty
              | None ->
                  error env at "class %s has no field %s" c f;
                  Tint)
          | None ->
              error env at "unknown class %s" c;
              Tint)
      | t ->
          error env at "field access on non-class type %s" (ty_to_string t);
          Tint)

let rec check_stmt env (st : stmt) =
  let at = st.sspan.lo in
  match st.s with
  | Decl (ty, name, init) ->
      (match ty with
      | Tvoid -> error env at "cannot declare variable of type void"
      | _ -> ());
      Option.iter
        (fun e ->
          let t = infer env e in
          if not (compatible ~expected:ty ~actual:t) then
            error env at "initializer for %s: expected %s, got %s" name
              (ty_to_string ty) (ty_to_string t))
        init;
      bind env name ty
  | Arr_decl (elem, name, size) ->
      if infer env size <> Tint then error env at "array size must be int";
      bind env name (Tarr elem)
  | Assign (lv, e) ->
      let tl = infer_lvalue env lv in
      let te = infer env e in
      if not (compatible ~expected:tl ~actual:te) then
        error env at "assignment: expected %s, got %s" (ty_to_string tl)
          (ty_to_string te)
  | Op_assign (op, lv, e) ->
      let tl = infer_lvalue env lv in
      let te = infer env e in
      if not (is_numeric tl && is_numeric te) then
        error env at "compound assignment on non-numeric types"
      else if tl = Tint && te = Tdouble then
        error env at "compound assignment narrows double to int";
      (match op with
      | Mod when tl <> Tint -> error env at "%% requires int operands"
      | _ -> ())
  | Expr_stmt e -> ignore (infer env e)
  | If { cond; then_; else_ } ->
      if infer env cond <> Tint then error env at "condition must be int";
      push_scope env;
      List.iter (check_stmt env) then_;
      pop_scope env;
      push_scope env;
      List.iter (check_stmt env) else_;
      pop_scope env
  | For { init; cond; step; body } ->
      push_scope env;
      if init.ideclared then bind env init.ivar Tint
      else if lookup env init.ivar = None then
        error env init.ispan.lo "unbound loop variable %s" init.ivar;
      if infer env init.iexpr <> Tint then
        error env init.ispan.lo "loop initializer must be int";
      if infer env cond <> Tint then
        error env cond.espan.lo "loop condition must be int";
      if step.svar <> init.ivar then
        error env step.stspan.lo
          "loop step updates %s but the loop variable is %s" step.svar
          init.ivar;
      Option.iter
        (fun e ->
          if infer env e <> Tint then
            error env step.stspan.lo "loop step must be int")
        step.sexpr;
      List.iter (check_stmt env) body;
      pop_scope env
  | While (cond, body) ->
      if infer env cond <> Tint then error env at "condition must be int";
      push_scope env;
      List.iter (check_stmt env) body;
      pop_scope env
  | Return None ->
      if env.ret <> Tvoid then error env at "missing return value"
  | Return (Some e) ->
      let t = infer env e in
      if env.ret = Tvoid then error env at "void function returns a value"
      else if not (compatible ~expected:env.ret ~actual:t) then
        error env at "return type: expected %s, got %s" (ty_to_string env.ret)
          (ty_to_string t)
  | Block body ->
      push_scope env;
      List.iter (check_stmt env) body;
      pop_scope env

let check_func prog errors (f : func) =
  let current_class =
    match f.fclass with
    | None -> None
    | Some c -> List.find_opt (fun cd -> cd.cname = c) prog.classes
  in
  let env =
    { prog; scopes = []; current_class; errors = []; ret = f.fret }
  in
  push_scope env;
  List.iter (fun p -> bind env p.pname p.pty) f.fparams;
  List.iter (check_stmt env) f.fbody;
  pop_scope env;
  errors := !errors @ List.rev env.errors

let check prog =
  let errors = ref [] in
  (* duplicate definitions *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : func) ->
      let key = mangle f in
      if Hashtbl.mem seen key then
        errors :=
          !errors @ [ { msg = "duplicate function " ^ key; at = f.fspan.lo } ]
      else Hashtbl.add seen key ())
    (all_functions prog);
  List.iter (check_func prog errors) (all_functions prog);
  match !errors with [] -> Ok () | es -> Error es

exception Check_error of error list

let errors_to_string es =
  String.concat "\n" (List.map (fun e -> Format.asprintf "%a" pp_error e) es)

let check_exn prog =
  match check prog with Ok () -> prog | Error es -> raise (Check_error es)
