open Ast

(* Canonical per-function digests for incremental reanalysis.

   The digest of a function must change exactly when re-analyzing it
   could produce a different model fragment.  The analysis consumes:

   - the function's own (folded, typechecked) structure, including the
     source *line* of every statement span — absolute lines appear in
     the model (entry lines, synthesized parameter names like
     [iters_42], warning texts) — and its annotations;
   - its analysis closure: the signatures of every function, method
     and extern it may call (return types drive typing and lowering,
     parameter names become call-site binding keys) and every class
     declaration (field order fixes object layout).

   Columns are deliberately excluded: instruction attribution works by
   span containment, and both the spans and the instruction positions
   are re-derived from the same parse, so any whitespace edit that
   preserves the line structure of a function leaves its model
   fragment byte-identical.  Bodies of *other* functions are likewise
   excluded — editing one function invalidates only that function.

   The serialization is an unambiguous tagged prefix form (every
   constructor gets a distinct tag, every list a length header), so
   distinct trees cannot collide textually; the hash is MD5 over the
   bytes. *)

let version = "mira-fp-1"

let add_str b s =
  (* length-prefixed so user identifiers cannot forge structure *)
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let add_int b n =
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let add_list b f xs =
  add_int b (List.length xs);
  List.iter (f b) xs

let add_span b (sp : Loc.span) =
  (* lines only; see the column note above *)
  add_int b sp.lo.line;
  add_int b sp.hi.line

let rec add_ty b = function
  | Tint -> Buffer.add_char b 'i'
  | Tdouble -> Buffer.add_char b 'd'
  | Tvoid -> Buffer.add_char b 'v'
  | Tarr t ->
      Buffer.add_char b 'a';
      add_ty b t
  | Tclass c ->
      Buffer.add_char b 'c';
      add_str b c

let add_binop b op = add_str b (binop_to_string op)

let add_unop b = function
  | Neg -> Buffer.add_char b 'n'
  | Lnot -> Buffer.add_char b '!'

let rec add_expr b (e : expr) =
  match e.e with
  | Int_lit n ->
      Buffer.add_char b 'I';
      add_int b n
  | Float_lit f ->
      Buffer.add_char b 'F';
      (* %h is exact (hex) — no rounding ambiguity *)
      add_str b (Printf.sprintf "%h" f)
  | Var x ->
      Buffer.add_char b 'V';
      add_str b x
  | Index (a, i) ->
      Buffer.add_char b 'X';
      add_expr b a;
      add_expr b i
  | Field (a, f) ->
      Buffer.add_char b 'D';
      add_expr b a;
      add_str b f
  | Call (f, args) ->
      Buffer.add_char b 'C';
      add_str b f;
      add_list b add_expr args
  | Method_call (o, m, args) ->
      Buffer.add_char b 'M';
      add_expr b o;
      add_str b m;
      add_list b add_expr args
  | Binop (op, a, c) ->
      Buffer.add_char b 'B';
      add_binop b op;
      add_expr b a;
      add_expr b c
  | Unop (op, a) ->
      Buffer.add_char b 'U';
      add_unop b op;
      add_expr b a
  | Cast (t, a) ->
      Buffer.add_char b 'T';
      add_ty b t;
      add_expr b a

let rec add_lvalue b (lv : lvalue) =
  match lv.l with
  | Lvar x ->
      Buffer.add_char b 'v';
      add_str b x
  | Lindex (l, e) ->
      Buffer.add_char b 'x';
      add_lvalue b l;
      add_expr b e
  | Lfield (l, f) ->
      Buffer.add_char b 'f';
      add_lvalue b l;
      add_str b f

let add_annotation b = function
  | A_skip -> Buffer.add_string b "@s"
  | A_init v ->
      Buffer.add_string b "@i";
      add_str b v
  | A_cond v ->
      Buffer.add_string b "@c";
      add_str b v
  | A_iters v ->
      Buffer.add_string b "@n";
      add_str b v
  | A_fraction f ->
      Buffer.add_string b "@f";
      add_str b (Printf.sprintf "%h" f)
  | A_parallel -> Buffer.add_string b "@p"

let rec add_stmt b (st : stmt) =
  add_span b st.sspan;
  add_list b add_annotation st.sann;
  match st.s with
  | Decl (t, x, init) ->
      Buffer.add_char b 'D';
      add_ty b t;
      add_str b x;
      add_list b add_expr (Option.to_list init)
  | Arr_decl (t, x, len) ->
      Buffer.add_char b 'A';
      add_ty b t;
      add_str b x;
      add_expr b len
  | Assign (lv, e) ->
      Buffer.add_char b '=';
      add_lvalue b lv;
      add_expr b e
  | Op_assign (op, lv, e) ->
      Buffer.add_char b 'O';
      add_binop b op;
      add_lvalue b lv;
      add_expr b e
  | Expr_stmt e ->
      Buffer.add_char b 'E';
      add_expr b e
  | If { cond; then_; else_ } ->
      Buffer.add_char b 'I';
      add_expr b cond;
      add_list b add_stmt then_;
      add_list b add_stmt else_
  | For { init; cond; step; body } ->
      Buffer.add_char b 'F';
      add_str b init.ivar;
      add_int b (if init.ideclared then 1 else 0);
      add_expr b init.iexpr;
      add_span b init.ispan;
      add_expr b cond;
      add_str b step.svar;
      add_list b (fun b d -> add_int b d) (Option.to_list step.sdelta);
      add_list b add_expr (Option.to_list step.sexpr);
      add_span b step.stspan;
      add_list b add_stmt body
  | While (cond, body) ->
      Buffer.add_char b 'W';
      add_expr b cond;
      add_list b add_stmt body
  | Return e ->
      Buffer.add_char b 'R';
      add_list b add_expr (Option.to_list e)
  | Block body ->
      Buffer.add_char b 'B';
      add_list b add_stmt body

let add_param b (p : param) =
  add_ty b p.pty;
  add_str b p.pname

let add_signature b (f : func) =
  add_list b (fun b c -> add_str b c) (Option.to_list f.fclass);
  add_str b f.fname;
  add_ty b f.fret;
  add_list b add_param f.fparams

(* The closure serialization: everything a function's analysis can
   observe about the rest of the program.  Bodies of other functions
   are not included — that is the whole point. *)
type context = string

let context_of_program (p : program) : context =
  let b = Buffer.create 512 in
  add_str b version;
  add_list b
    (fun b (c : class_decl) ->
      add_str b c.cname;
      add_list b add_param c.cfields;
      add_list b add_signature c.cmethods)
    p.classes;
  add_list b add_signature p.funcs;
  add_list b
    (fun b (x : extern_decl) ->
      add_str b x.xname;
      add_ty b x.xret;
      add_list b add_ty x.xparams)
    p.externs;
  Buffer.contents b

let func_bytes ~(context : context) ~salt (f : func) =
  let b = Buffer.create 1024 in
  add_str b salt;
  add_str b context;
  add_signature b f;
  add_span b f.fspan;
  add_list b add_stmt f.fbody;
  Buffer.contents b

let func_digest ~context ~salt (f : func) =
  Digest.to_hex (Digest.string (func_bytes ~context ~salt f))

(* ---------- cross-file interface and reference sets ---------- *)

let digest_of add x =
  let b = Buffer.create 128 in
  add_str b version;
  add b x;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Only the annotation structure of the body, in traversal order:
   callers splice the callee's evaluated model, so an annotation edit
   inside [f] must reach [f]'s cross-file callers — but a plain body
   edit must not. *)
let add_body_annotations b (f : func) =
  iter_stmts (fun st -> add_list b add_annotation st.sann) f.fbody

let add_class b (c : class_decl) =
  add_str b c.cname;
  add_list b add_param c.cfields;
  add_list b add_signature c.cmethods

let add_extern b (x : extern_decl) =
  add_str b x.xname;
  add_ty b x.xret;
  add_list b add_ty x.xparams

let interface_of_program (p : program) =
  let entries = ref [] in
  let push k v = entries := (k, v) :: !entries in
  List.iter
    (fun (c : class_decl) ->
      push ("class:" ^ c.cname) (digest_of add_class c);
      List.iter
        (fun (m : func) ->
          push ("ann:" ^ mangle m) (digest_of add_body_annotations m))
        c.cmethods)
    p.classes;
  List.iter
    (fun (f : func) ->
      push ("sig:" ^ f.fname) (digest_of add_signature f);
      push ("ann:" ^ f.fname) (digest_of add_body_annotations f))
    p.funcs;
  List.iter
    (fun (x : extern_decl) -> push ("extern:" ^ x.xname) (digest_of add_extern x))
    p.externs;
  List.rev !entries

module Sset = Set.Make (String)

let func_refs (p : program) (f : func) =
  let refs = ref Sset.empty in
  let add k = refs := Sset.add k !refs in
  let rec ty_refs = function
    | Tint | Tdouble | Tvoid -> ()
    | Tarr t -> ty_refs t
    | Tclass c -> add ("class:" ^ c)
  in
  ty_refs f.fret;
  List.iter (fun (pm : param) -> ty_refs pm.pty) f.fparams;
  (match f.fclass with Some c -> add ("class:" ^ c) | None -> ());
  let on_expr (e : expr) =
    (match e.ety with Some t -> ty_refs t | None -> ());
    match e.e with
    | Call (name, _) ->
        if Option.is_some (find_extern p name) then add ("extern:" ^ name)
        else begin
          add ("sig:" ^ name);
          add ("ann:" ^ name)
        end
    | Method_call (o, m, _) -> (
        match o.ety with
        | Some (Tclass c) ->
            add ("class:" ^ c);
            add ("ann:" ^ mangle_method c m)
        | _ -> ())
    | Cast (t, _) -> ty_refs t
    | Int_lit _ | Float_lit _ | Var _ | Index _ | Field _ | Binop _ | Unop _ ->
        ()
  in
  iter_stmts
    (fun st ->
      (match st.s with
      | Decl (t, _, _) | Arr_decl (t, _, _) -> ty_refs t
      | _ -> ());
      iter_exprs_of_stmt on_expr st)
    f.fbody;
  Sset.elements !refs
