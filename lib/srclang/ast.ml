(* Abstract syntax of mini-C, the language Mira analyzes.

   Every node carries a span; typed expressions additionally carry the
   type inferred by {!Typecheck} in a mutable slot so downstream
   passes (codegen, the metric generator) can dispatch on int vs
   double without a second tree. *)

type ty =
  | Tint
  | Tdouble
  | Tvoid
  | Tarr of ty  (* one-dimensional array of element type *)
  | Tclass of string

let rec pp_ty ppf = function
  | Tint -> Format.pp_print_string ppf "int"
  | Tdouble -> Format.pp_print_string ppf "double"
  | Tvoid -> Format.pp_print_string ppf "void"
  | Tarr t -> Format.fprintf ppf "%a[]" pp_ty t
  | Tclass c -> Format.pp_print_string ppf c

let ty_to_string t = Format.asprintf "%a" pp_ty t

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

type unop = Neg | Lnot

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Land -> "&&" | Lor -> "||"

type expr = {
  e : expr_desc;
  espan : Loc.span;
  mutable ety : ty option;  (* filled by Typecheck *)
}

and expr_desc =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of expr * expr
  | Field of expr * string
  | Call of string * expr list
  | Method_call of expr * string * expr list
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Cast of ty * expr

type lvalue = { l : lvalue_desc; lspan : Loc.span }

and lvalue_desc =
  | Lvar of string
  | Lindex of lvalue * expr
  | Lfield of lvalue * string

(* User annotations (paper §III-C4), attached to the following
   statement by `#pragma @Annotation { ... }`. *)
type annotation_item =
  | A_skip                     (* {skip:yes} *)
  | A_init of string           (* {lp_init:x} — variable completing a SCoP *)
  | A_cond of string           (* {lp_cond:y} *)
  | A_iters of string          (* {iters:n} — iteration count expression *)
  | A_fraction of float        (* {fraction:0.25} — branch proportion *)
  | A_parallel                 (* {parallel:yes} — shared-memory loop
                                  (the paper's future-work extension) *)

type stmt = {
  s : stmt_desc;
  sspan : Loc.span;
  sann : annotation_item list;
}

and stmt_desc =
  | Decl of ty * string * expr option
  | Arr_decl of ty * string * expr  (* element type, name, length *)
  | Assign of lvalue * expr
  | Op_assign of binop * lvalue * expr  (* x += e etc. *)
  | Expr_stmt of expr
  | If of { cond : expr; then_ : stmt list; else_ : stmt list }
  | For of {
      init : for_init;
      cond : expr;
      step : for_step;
      body : stmt list;
    }
  | While of expr * stmt list
  | Return of expr option
  | Block of stmt list

and for_init = {
  ivar : string;
  ideclared : bool;  (* `for (int i = ...` vs `for (i = ...` *)
  iexpr : expr;
  ispan : Loc.span;
}

and for_step = {
  svar : string;
  sdelta : int option;  (* Some d for i += d / i++ / i-- (d = -1); None if irregular *)
  sexpr : expr option;  (* the delta expression when not a literal *)
  stspan : Loc.span;
}

type param = { pty : ty; pname : string }

type func = {
  fname : string;
  fret : ty;
  fparams : param list;
  fbody : stmt list;
  fclass : string option;  (* enclosing class for methods *)
  fspan : Loc.span;
}

type class_decl = {
  cname : string;
  cfields : param list;
  cmethods : func list;
  cspan : Loc.span;
}

type extern_decl = {
  xname : string;
  xret : ty;
  xparams : ty list;
}

type program = {
  classes : class_decl list;
  funcs : func list;
  externs : extern_decl list;
}

let mk_expr ?(ety = None) e espan = { e; espan; ety }
let mk_stmt ?(ann = []) s sspan = { s; sspan; sann = ann }

let find_func p name = List.find_opt (fun f -> f.fname = name) p.funcs

let find_method p cls name =
  match List.find_opt (fun c -> c.cname = cls) p.classes with
  | None -> None
  | Some c -> List.find_opt (fun m -> m.fname = name) c.cmethods

let find_extern p name = List.find_opt (fun x -> x.xname = name) p.externs

let all_functions p =
  p.funcs @ List.concat_map (fun c -> c.cmethods) p.classes

(* The one spelling of a function's mangled name — the symbol the
   compiler writes into the object file, the bridge looks up and the
   model is keyed by: [name], or [Class::name] for a method. *)
let mangle_method cls name = cls ^ "::" ^ name

let mangle f =
  match f.fclass with None -> f.fname | Some c -> mangle_method c f.fname

(* Iterate over every statement in a function body, depth first. *)
let rec iter_stmts f stmts =
  List.iter
    (fun st ->
      f st;
      match st.s with
      | If { then_; else_; _ } ->
          iter_stmts f then_;
          iter_stmts f else_
      | For { body; _ } | While (_, body) | Block body -> iter_stmts f body
      | Decl _ | Arr_decl _ | Assign _ | Op_assign _ | Expr_stmt _ | Return _
        -> ())
    stmts

let rec iter_exprs_of_expr f e =
  f e;
  match e.e with
  | Int_lit _ | Float_lit _ | Var _ -> ()
  | Index (a, b) | Binop (_, a, b) ->
      iter_exprs_of_expr f a;
      iter_exprs_of_expr f b
  | Field (a, _) | Unop (_, a) | Cast (_, a) -> iter_exprs_of_expr f a
  | Call (_, args) -> List.iter (iter_exprs_of_expr f) args
  | Method_call (o, _, args) ->
      iter_exprs_of_expr f o;
      List.iter (iter_exprs_of_expr f) args

let rec iter_exprs_of_lvalue f lv =
  match lv.l with
  | Lvar _ -> ()
  | Lindex (l, e) ->
      iter_exprs_of_lvalue f l;
      iter_exprs_of_expr f e
  | Lfield (l, _) -> iter_exprs_of_lvalue f l

let iter_exprs_of_stmt f st =
  match st.s with
  | Decl (_, _, Some e) -> iter_exprs_of_expr f e
  | Decl (_, _, None) -> ()
  | Arr_decl (_, _, e) -> iter_exprs_of_expr f e
  | Assign (lv, e) | Op_assign (_, lv, e) ->
      iter_exprs_of_lvalue f lv;
      iter_exprs_of_expr f e
  | Expr_stmt e -> iter_exprs_of_expr f e
  | If { cond; _ } -> iter_exprs_of_expr f cond
  | For { init; cond; step; _ } ->
      iter_exprs_of_expr f init.iexpr;
      iter_exprs_of_expr f cond;
      Option.iter (iter_exprs_of_expr f) step.sexpr
  | While (c, _) -> iter_exprs_of_expr f c
  | Return (Some e) -> iter_exprs_of_expr f e
  | Return None | Block _ -> ()
