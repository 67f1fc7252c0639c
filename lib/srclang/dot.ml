open Ast

type ctx = { buf : Buffer.t; mutable next : int }

let fresh ctx =
  let id = ctx.next in
  ctx.next <- id + 1;
  id

let node ctx label =
  let id = fresh ctx in
  Buffer.add_string ctx.buf
    (Printf.sprintf "  n%d [label=\"%s\"];\n" id (String.escaped label));
  id

let edge ctx a b = Buffer.add_string ctx.buf (Printf.sprintf "  n%d -> n%d;\n" a b)

let rec expr_node ctx (e : expr) =
  match e.e with
  | Int_lit n -> node ctx (Printf.sprintf "SgIntVal %d" n)
  | Float_lit f -> node ctx (Printf.sprintf "SgDoubleVal %g" f)
  | Var x -> node ctx (Printf.sprintf "SgVarRefExp %s" x)
  | Index (a, i) ->
      let id = node ctx "SgPntrArrRefExp" in
      edge ctx id (expr_node ctx a);
      edge ctx id (expr_node ctx i);
      id
  | Field (o, f) ->
      let id = node ctx (Printf.sprintf "SgDotExp .%s" f) in
      edge ctx id (expr_node ctx o);
      id
  | Call (f, args) ->
      let id = node ctx (Printf.sprintf "SgFunctionCallExp %s" f) in
      List.iter (fun a -> edge ctx id (expr_node ctx a)) args;
      id
  | Method_call (o, m, args) ->
      let id = node ctx (Printf.sprintf "SgMemberFunctionCallExp %s" m) in
      edge ctx id (expr_node ctx o);
      List.iter (fun a -> edge ctx id (expr_node ctx a)) args;
      id
  | Binop (op, a, b) ->
      let name =
        match op with
        | Add -> "SgAddOp" | Sub -> "SgSubtractOp" | Mul -> "SgMultiplyOp"
        | Div -> "SgDivideOp" | Mod -> "SgModOp"
        | Lt -> "SgLessThanOp" | Le -> "SgLessOrEqualOp"
        | Gt -> "SgGreaterThanOp" | Ge -> "SgGreaterOrEqualOp"
        | Eq -> "SgEqualityOp" | Ne -> "SgNotEqualOp"
        | Land -> "SgAndOp" | Lor -> "SgOrOp"
      in
      let id = node ctx name in
      edge ctx id (expr_node ctx a);
      edge ctx id (expr_node ctx b);
      id
  | Unop (Neg, a) ->
      let id = node ctx "SgMinusOp" in
      edge ctx id (expr_node ctx a);
      id
  | Unop (Lnot, a) ->
      let id = node ctx "SgNotOp" in
      edge ctx id (expr_node ctx a);
      id
  | Cast (t, a) ->
      let id = node ctx (Printf.sprintf "SgCastExp %s" (ty_to_string t)) in
      edge ctx id (expr_node ctx a);
      id

let rec lvalue_node ctx (lv : lvalue) =
  match lv.l with
  | Lvar x -> node ctx (Printf.sprintf "SgVarRefExp %s" x)
  | Lindex (l, i) ->
      let id = node ctx "SgPntrArrRefExp" in
      edge ctx id (lvalue_node ctx l);
      edge ctx id (expr_node ctx i);
      id
  | Lfield (l, f) ->
      let id = node ctx (Printf.sprintf "SgDotExp .%s" f) in
      edge ctx id (lvalue_node ctx l);
      id

let rec stmt_node ctx (st : stmt) =
  match st.s with
  | Decl (ty, name, init) ->
      let id =
        node ctx
          (Printf.sprintf "SgVariableDeclaration %s %s" (ty_to_string ty) name)
      in
      Option.iter (fun e -> edge ctx id (expr_node ctx e)) init;
      id
  | Arr_decl (ty, name, size) ->
      let id =
        node ctx
          (Printf.sprintf "SgVariableDeclaration %s %s[]" (ty_to_string ty)
             name)
      in
      edge ctx id (expr_node ctx size);
      id
  | Assign (lv, e) ->
      let id = node ctx "SgExprStatement" in
      let assign = node ctx "SgAssignOp" in
      edge ctx id assign;
      edge ctx assign (lvalue_node ctx lv);
      edge ctx assign (expr_node ctx e);
      id
  | Op_assign (op, lv, e) ->
      let name =
        match op with
        | Add -> "SgPlusAssignOp" | Sub -> "SgMinusAssignOp"
        | Mul -> "SgMultAssignOp" | Div -> "SgDivAssignOp"
        | _ -> "SgCompoundAssignOp"
      in
      let id = node ctx "SgExprStatement" in
      let assign = node ctx name in
      edge ctx id assign;
      edge ctx assign (lvalue_node ctx lv);
      edge ctx assign (expr_node ctx e);
      id
  | Expr_stmt e ->
      let id = node ctx "SgExprStatement" in
      edge ctx id (expr_node ctx e);
      id
  | If { cond; then_; else_ } ->
      let id = node ctx "SgIfStmt" in
      let c = node ctx "SgExprStatement" in
      edge ctx id c;
      edge ctx c (expr_node ctx cond);
      edge ctx id (block_node ctx then_);
      if else_ <> [] then edge ctx id (block_node ctx else_);
      id
  | For { init; cond; step; body } ->
      let id = node ctx "SgForStatement" in
      let i = node ctx "SgForInitStatement" in
      edge ctx id i;
      edge ctx i (expr_node ctx init.iexpr);
      let c = node ctx "SgExprStatement" in
      edge ctx id c;
      edge ctx c (expr_node ctx cond);
      let s =
        node ctx
          (match step.sdelta with
          | Some 1 -> "SgPlusPlusOp"
          | Some -1 -> "SgMinusMinusOp"
          | _ -> "SgPlusAssignOp")
      in
      edge ctx id s;
      Option.iter (fun e -> edge ctx s (expr_node ctx e)) step.sexpr;
      edge ctx id (block_node ctx body);
      id
  | While (cond, body) ->
      let id = node ctx "SgWhileStmt" in
      edge ctx id (expr_node ctx cond);
      edge ctx id (block_node ctx body);
      id
  | Return e ->
      let id = node ctx "SgReturnStmt" in
      Option.iter (fun e -> edge ctx id (expr_node ctx e)) e;
      id
  | Block body -> block_node ctx body

and block_node ctx stmts =
  let id = node ctx "SgBasicBlock" in
  List.iter (fun st -> edge ctx id (stmt_node ctx st)) stmts;
  id

let func_node ctx (f : func) =
  let id = node ctx (Printf.sprintf "SgFunctionDeclaration %s" (mangle f)) in
  let def = node ctx "SgFunctionDefinition" in
  edge ctx id def;
  edge ctx def (block_node ctx f.fbody);
  id

let render f =
  let ctx = { buf = Buffer.create 1024; next = 0 } in
  Buffer.add_string ctx.buf "digraph srcast {\n  node [shape=box];\n";
  f ctx;
  Buffer.add_string ctx.buf "}\n";
  Buffer.contents ctx.buf

let of_func f = render (fun ctx -> ignore (func_node ctx f))

let of_program p =
  render (fun ctx ->
      let root = node ctx "SgProject" in
      let file = node ctx "SgSourceFile" in
      edge ctx root file;
      let global = node ctx "SgGlobal" in
      edge ctx file global;
      List.iter
        (fun (c : class_decl) ->
          let cid = node ctx (Printf.sprintf "SgClassDeclaration %s" c.cname) in
          edge ctx global cid;
          List.iter (fun m -> edge ctx cid (func_node ctx m)) c.cmethods)
        p.classes;
      List.iter (fun f -> edge ctx global (func_node ctx f)) p.funcs)
