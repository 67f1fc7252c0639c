open Mira_srclang
open Mira_srclang.Ast

type op =
  [ `Fadd | `Fsub | `Fmul | `Fdiv | `Fneg | `Cmp | `Load | `Store
  | `Iop | `Call | `Cvt ]

let op_name : op -> string = function
  | `Fadd -> "fadd"
  | `Fsub -> "fsub"
  | `Fmul -> "fmul"
  | `Fdiv -> "fdiv"
  | `Fneg -> "fneg"
  | `Cmp -> "cmp"
  | `Load -> "load"
  | `Store -> "store"
  | `Iop -> "iop"
  | `Call -> "call"
  | `Cvt -> "cvt"

(* Source operations contributed by one expression node (children are
   visited separately by the traversal). *)
let ops_of_expr (e : expr) : op list =
  let is_double = e.ety = Some Tdouble in
  match e.e with
  | Int_lit _ | Float_lit _ | Var _ -> []
  | Index _ | Field _ -> [ `Load ]
  | Call _ | Method_call _ -> [ `Call ]
  | Binop (Add, _, _) -> if is_double then [ `Fadd ] else [ `Iop ]
  | Binop (Sub, _, _) -> if is_double then [ `Fsub ] else [ `Iop ]
  | Binop (Mul, _, _) -> if is_double then [ `Fmul ] else [ `Iop ]
  | Binop (Div, _, _) -> if is_double then [ `Fdiv ] else [ `Iop ]
  | Binop (Mod, _, _) -> [ `Iop ]
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne), _, _) -> [ `Cmp ]
  | Binop ((Land | Lor), _, _) -> [ `Iop ]
  | Unop (Neg, _) -> if is_double then [ `Fneg ] else [ `Iop ]
  | Unop (Lnot, _) -> [ `Iop ]
  | Cast _ -> [ `Cvt ]

let is_memory_lvalue (lv : lvalue) =
  match lv.l with Lvar _ -> false | Lindex _ | Lfield _ -> true

let collect_function (f : func) : (Loc.pos * string) array =
  let items = ref [] in
  let add pos (op : op) = items := (pos, op_name op) :: !items in
  let on_expr (e : expr) = List.iter (add e.espan.lo) (ops_of_expr e) in
  let on_stmt (st : stmt) =
    iter_exprs_of_stmt on_expr st;
    match st.s with
    | Assign (lv, _) when is_memory_lvalue lv -> add lv.lspan.lo `Store
    | Op_assign (op, lv, rhs) ->
        if is_memory_lvalue lv then begin
          add lv.lspan.lo `Load;
          add lv.lspan.lo `Store
        end;
        let double = rhs.ety = Some Tdouble in
        add lv.lspan.lo
          (match (op, double) with
          | Add, true -> `Fadd
          | Sub, true -> `Fsub
          | Mul, true -> `Fmul
          | Div, true -> `Fdiv
          | _ -> `Iop)
    | _ -> ()
  in
  iter_stmts on_stmt f.fbody;
  Array.of_list (List.rev !items)

let analyze ?(source_name = "<memory>") source =
  let ast = Typecheck.check_exn (Parser.parse source) in
  let fns = all_functions ast in
  let bridge =
    Mira_core.Bridge.of_items
      (List.map (fun f -> (mangle f, collect_function f)) fns)
  in
  Mira_core.Metric_gen.assemble ~source_name
    (List.map (Mira_core.Metric_gen.build_part ast bridge) fns)

let flops counts =
  List.fold_left
    (fun acc op -> acc +. Mira_core.Model_eval.count counts op)
    0.0
    [ "fadd"; "fsub"; "fmul"; "fdiv"; "fneg" ]

let mem_refs counts =
  Mira_core.Model_eval.count counts "load"
  +. Mira_core.Model_eval.count counts "store"
