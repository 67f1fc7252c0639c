open Mira_symexpr
open Mira_poly
open Mira_arch

exception Not_compilable of string

type mode = Inclusive | Exclusive | Split

let who_of_mode = function
  | Inclusive -> "Model_eval.eval"
  | Exclusive -> "Model_eval.eval_exclusive"
  | Split -> "Model_eval.eval_split"

(* ------------------------------------------------------------------ *)
(* Symbolic values: the partial-evaluation IR                          *)
(* ------------------------------------------------------------------ *)

(* A value symbolic in the sweep variables only: every fixed
   parameter, arch constant and call binding has been folded.  [Spoly]
   is the workhorse — polynomial contributions merge exactly (rational
   coefficient arithmetic), which is what collapses an inlined call
   tree into one closed form per mnemonic.  The remaining constructors
   carry the non-polynomial residue (floor/ceil steps, min/max
   clipping, interval guards). *)
type s =
  | Sconst of float
  | Spoly of Poly.t
  | Sadd of s * s
  | Smul of s * s
  | Smax of s * s
  | Smin of s * s
  | Sfdiv of s * int
  | Scdiv of s * int
  | Sif of s * s * s  (* guard >= 0 ? then : else *)

let poly_size p = Poly.fold_terms (fun _ _ n -> n + 1) p 0

(* Keep symbolic polynomial merging from exploding on pathological
   products; past this we leave an Smul/Spow node for the register
   program to evaluate. *)
let max_merge_terms = 4096

let is_intf c = Float.is_integer c && Float.abs c <= 9.007199254740992e15

let spoly p =
  match Poly.to_const p with
  | Some r -> Sconst (Ratio.to_float r)
  | None -> Spoly p

let rec sadd a b =
  match (a, b) with
  | Sconst 0., x | x, Sconst 0. -> x
  | Sconst a, Sconst b -> Sconst (a +. b)
  | Spoly p, Spoly q -> spoly (Poly.add p q)
  | (Sconst c, Spoly p | Spoly p, Sconst c) when is_intf c ->
      spoly (Poly.add p (Poly.of_int (int_of_float c)))
  | Sadd (x, Sconst c1), Sconst c2 -> sadd x (Sconst (c1 +. c2))
  | _ -> Sadd (a, b)

let smul a b =
  match (a, b) with
  | Sconst 0., _ | _, Sconst 0. -> Sconst 0.
  | Sconst 1., x | x, Sconst 1. -> x
  | Sconst a, Sconst b -> Sconst (a *. b)
  | Spoly p, Spoly q when poly_size p * poly_size q <= max_merge_terms ->
      spoly (Poly.mul p q)
  | (Sconst c, Spoly p | Spoly p, Sconst c) when is_intf c ->
      spoly (Poly.scale (Ratio.of_int (int_of_float c)) p)
  | _ -> Smul (a, b)

let smax a b =
  match (a, b) with
  | Sconst x, Sconst y -> Sconst (Float.max x y)
  | Spoly p, Spoly q when Poly.equal p q -> a
  | _ -> Smax (a, b)

let smin a b =
  match (a, b) with
  | Sconst x, Sconst y -> Sconst (Float.min x y)
  | Spoly p, Spoly q when Poly.equal p q -> a
  | _ -> Smin (a, b)

(* Folds replicate the runtime op exactly (same float expression as
   Expr.eval_float), so folding never changes a result. *)
let sfdiv a n =
  if n = 1 then a
  else
    match a with
    | Sconst c ->
        Sconst (Float.of_int (int_of_float (floor (c /. float_of_int n))))
    | _ -> Sfdiv (a, n)

let scdiv a n =
  if n = 1 then a
  else
    match a with
    | Sconst c ->
        Sconst (Float.of_int (int_of_float (ceil (c /. float_of_int n))))
    | _ -> Scdiv (a, n)

let sif g a b =
  match g with Sconst c -> if c >= 0.0 then a else b | _ -> Sif (g, a, b)

let rec spow a e =
  if e <= 0 then Sconst 1.0 else if e = 1 then a else smul a (spow a (e - 1))

(* ------------------------------------------------------------------ *)
(* The symbolic walk: evaluate the model over [s] values               *)
(* ------------------------------------------------------------------ *)

type ctx = { model : Model_ir.t; mutable work : int }

let max_work = 200_000
let max_depth = 128

let bump ctx =
  ctx.work <- ctx.work + 1;
  if ctx.work > max_work then
    raise (Not_compilable "inlined model too large to compile");
  Limits.Budget.tick ()

(* Substitute every variable of [p] simultaneously by its [s] value.
   When all values are polynomials (or exactly representable integer
   constants) the result stays an exact polynomial. *)
let poly_s (lookup : string -> s) (p : Poly.t) : s =
  let vals = List.map (fun x -> (x, lookup x)) (Poly.vars p) in
  let as_poly = function
    | Spoly q -> Some q
    | Sconst c when is_intf c -> Some (Poly.of_int (int_of_float c))
    | _ -> None
  in
  let polys =
    List.fold_left
      (fun acc (x, v) ->
        match (acc, as_poly v) with
        | Some m, Some q -> Some ((x, q) :: m)
        | _ -> None)
      (Some []) vals
  in
  match polys with
  | Some env ->
      spoly
        (Poly.fold_terms
           (fun m c acc ->
             Poly.add acc
               (Poly.scale c
                  (Poly.product
                     (List.map
                        (fun (x, e) -> Poly.pow (List.assoc x env) e)
                        m))))
           p Poly.zero)
  | None ->
      let env = vals in
      Poly.fold_terms
        (fun m c acc ->
          sadd acc
            (smul
               (Sconst (Ratio.to_float c))
               (List.fold_left
                  (fun v (x, e) -> smul v (spow (List.assoc x env) e))
                  (Sconst 1.0) m)))
        p (Sconst 0.0)

let rec expr_s lookup (e : Expr.t) : s =
  match e with
  | Expr.P p -> poly_s lookup p
  | Expr.Add (a, b) -> sadd (expr_s lookup a) (expr_s lookup b)
  | Expr.Mul (a, b) -> smul (expr_s lookup a) (expr_s lookup b)
  | Expr.Max (a, b) -> smax (expr_s lookup a) (expr_s lookup b)
  | Expr.Min (a, b) -> smin (expr_s lookup a) (expr_s lookup b)
  | Expr.Fdiv (a, n) -> sfdiv (expr_s lookup a) n
  | Expr.Cdiv (a, n) -> scdiv (expr_s lookup a) n
  | Expr.If (g, a, b) ->
      sif (poly_s lookup g) (expr_s lookup a) (expr_s lookup b)

let count_s ctx lookup (c : Count.result) : s =
  match c with
  | Count.Closed e -> expr_s lookup e
  | Count.Deferred d ->
      (* Pre-expand: when every domain parameter folded to a constant,
         enumerate now; a deferred count over a live sweep variable
         has no closed form and forces the interpreted fallback. *)
      let params =
        List.map
          (fun p ->
            match lookup p with
            | Sconst c when Float.is_integer c -> (p, int_of_float c)
            | _ ->
                raise
                  (Not_compilable
                     ("deferred count depends on sweep variable " ^ p)))
          (Domain.parameters d)
      in
      bump ctx;
      Sconst (float_of_int (Enumerate.count ~params d))

let mult_s ctx lookup (m : Model_ir.mult) : s =
  let sum =
    List.fold_left
      (fun acc (sign, c) ->
        let v = count_s ctx lookup c in
        let sv =
          if sign = 1 then v else smul (Sconst (float_of_int sign)) v
        in
        sadd acc sv)
      (Sconst 0.0) m.terms
  in
  smul (Sconst m.scale) sum

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = a / gcd a b * b

(* Call-site binding: the interpreter computes the exact rational
   value of the binding polynomial and floors it.  With integer
   arguments, floor(p(args)) = floor((d*p)(args) / d) where d is the
   lcm of p's coefficient denominators — and d*p has integer
   coefficients, so its float evaluation is exact.  That turns the
   exact-rational floor into one integer-float Fdiv. *)
let bind_s lookup (poly : Poly.t) : s =
  let d = Poly.fold_terms (fun _ c acc -> lcm acc (Ratio.den c)) poly 1 in
  let scaled = if d = 1 then poly else Poly.scale (Ratio.of_int d) poly in
  let y = poly_s lookup scaled in
  if d = 1 then y else sfdiv y d

(* Accumulate symbolic (serial, parallel) contributions per mnemonic,
   mirroring Model_eval's recursive walk with callee models inlined by
   call multiplicity. *)
let gather ctx ~inline_calls ~fname (lookup : string -> s) :
    (string, s * s) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let add mn (ds, dp) =
    let s0, p0 =
      Option.value ~default:(Sconst 0.0, Sconst 0.0) (Hashtbl.find_opt tbl mn)
    in
    Hashtbl.replace tbl mn (sadd s0 ds, sadd p0 dp)
  in
  let rec go depth fname lookup scale_into =
    if depth > max_depth then
      raise (Not_compilable "call depth limit exceeded (recursive model?)");
    let fm = Model_ir.find_exn ctx.model fname in
    List.iter
      (fun entry ->
        bump ctx;
        match entry with
        | Model_ir.Update { counts; mult; _ } ->
            let m = mult_s ctx lookup mult in
            List.iter
              (fun (mn, c) ->
                let v = smul m (Sconst (float_of_int c)) in
                scale_into mn mult.parallel v)
              counts
        | Model_ir.Call_site { callee; bindings; mult; _ } -> (
            if inline_calls then
              match Model_ir.find ctx.model callee with
              | None -> ()  (* extern: call cost already counted *)
              | Some cm ->
                  let cenv =
                    List.map
                      (fun p ->
                        let v =
                          match List.assoc_opt p bindings with
                          | Some (Model_ir.Bound poly) -> bind_s lookup poly
                          | Some (Model_ir.Unbound name) -> lookup name
                          | None -> lookup p
                        in
                        (p, v))
                      cm.mf_params
                  in
                  let clookup name =
                    match List.assoc_opt name cenv with
                    | Some v -> v
                    | None ->
                        raise (Model_eval.Missing_parameter (callee, name))
                  in
                  let m = mult_s ctx lookup mult in
                  let scale_sub mn sub_parallel v =
                    (* a parallel call site makes the whole callee
                       parallel *)
                    let parallel = mult.parallel || sub_parallel in
                    scale_into mn parallel (smul m v)
                  in
                  go (depth + 1) callee clookup scale_sub))
      fm.mf_entries
  in
  let top mn parallel v =
    add mn (if parallel then (Sconst 0.0, v) else (v, Sconst 0.0))
  in
  go 0 fname lookup top;
  tbl

(* ------------------------------------------------------------------ *)
(* Register programs                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Oadd of int * int * int
  | Omul of int * int * int
  | Omax of int * int * int
  | Omin of int * int * int
  | Omadd of int * int * int * int  (* d <- a *. b +. c *)
  | Ofdiv of int * int * float  (* d <- floor (a / n) *)
  | Ocdiv of int * int * float
  | Osel of int * int * int * int  (* d <- if g >= 0 then a else b *)

type prog = {
  p_fname : string;
  p_params : string array;  (* input register slots 0 .. k-1 *)
  p_mnemonics : string array;  (* canonical sorted order *)
  p_nregs : int;
  p_init : float array;  (* initial register image (consts preloaded) *)
  p_ops : op array;
  p_out : int array;  (* result register per mnemonic *)
  p_out_par : int array;  (* Split mode: parallel result registers *)
  p_mode : mode;
  p_fp : bool array;  (* fp_mnemonics membership, in p_mnemonics order *)
  p_cost : float array;  (* per-mnemonic cycles; [||] without an arch *)
  p_arch : string option;
  p_clock_ghz : float;
}

let params p = p.p_params
let mnemonics p = p.p_mnemonics
let prog_mode p = p.p_mode
let n_ops p = Array.length p.p_ops
let n_regs p = p.p_nregs
let prog_arch p = p.p_arch

(* Structural keys for common-subexpression elimination.  Commutative
   ops are normalized (IEEE +,*,min,max are exactly commutative for
   the finite values programs compute). *)
type ckey =
  | Kadd of int * int
  | Kmul of int * int
  | Kmax of int * int
  | Kmin of int * int
  | Kmadd of int * int * int
  | Kfdiv of int * int
  | Kcdiv of int * int
  | Ksel of int * int * int

type builder = {
  mutable nreg : int;
  mutable ops_rev : op list;
  mutable nops : int;
  consts : (float, int) Hashtbl.t;
  cse : (ckey, int) Hashtbl.t;
  cval : (int, float) Hashtbl.t;  (* registers holding known constants *)
  var_reg : (string, int) Hashtbl.t;  (* sweep variable -> input slot *)
}

let max_ops = 1_000_000

let newreg b =
  let r = b.nreg in
  b.nreg <- r + 1;
  r

let creg b c =
  match Hashtbl.find_opt b.consts c with
  | Some r -> r
  | None ->
      let r = newreg b in
      Hashtbl.add b.consts c r;
      Hashtbl.add b.cval r c;
      r

let emit b key mk =
  match Hashtbl.find_opt b.cse key with
  | Some r -> r
  | None ->
      let r = newreg b in
      b.ops_rev <- mk r :: b.ops_rev;
      b.nops <- b.nops + 1;
      if b.nops > max_ops then
        raise (Not_compilable "compiled program too large");
      Hashtbl.add b.cse key r;
      r

let cv b r = Hashtbl.find_opt b.cval r
let norm2 x y = if x <= y then (x, y) else (y, x)

let fadd b x y =
  match (cv b x, cv b y) with
  | Some a, Some c -> creg b (a +. c)
  | _ ->
      let x, y = norm2 x y in
      emit b (Kadd (x, y)) (fun d -> Oadd (d, x, y))

let fmul b x y =
  match (cv b x, cv b y) with
  | Some a, Some c -> creg b (a *. c)
  | _ ->
      let x, y = norm2 x y in
      emit b (Kmul (x, y)) (fun d -> Omul (d, x, y))

let fmax b x y =
  match (cv b x, cv b y) with
  | Some a, Some c -> creg b (Float.max a c)
  | _ ->
      let x, y = norm2 x y in
      emit b (Kmax (x, y)) (fun d -> Omax (d, x, y))

let fmin b x y =
  match (cv b x, cv b y) with
  | Some a, Some c -> creg b (Float.min a c)
  | _ ->
      let x, y = norm2 x y in
      emit b (Kmin (x, y)) (fun d -> Omin (d, x, y))

let fmadd b x y z =
  (* x *. y +. z *)
  match (cv b x, cv b y, cv b z) with
  | Some a, Some c, Some e -> creg b ((a *. c) +. e)
  | _ -> (
      match (cv b x, cv b y, cv b z) with
      | _, _, Some 0. -> fmul b x y
      | Some 1., _, _ -> fadd b y z
      | _, Some 1., _ -> fadd b x z
      | _ ->
          let x, y = norm2 x y in
          emit b (Kmadd (x, y, z)) (fun d -> Omadd (d, x, y, z)))

let ffdiv b x n =
  match cv b x with
  | Some a -> creg b (Float.of_int (int_of_float (floor (a /. n))))
  | None -> emit b (Kfdiv (x, int_of_float n)) (fun d -> Ofdiv (d, x, n))

let fcdiv b x n =
  match cv b x with
  | Some a -> creg b (Float.of_int (int_of_float (ceil (a /. n))))
  | None -> emit b (Kcdiv (x, int_of_float n)) (fun d -> Ocdiv (d, x, n))

let fsel b g x y =
  match cv b g with
  | Some c -> if c >= 0.0 then x else y
  | None -> emit b (Ksel (g, x, y)) (fun d -> Osel (d, g, x, y))

(* Horner scheduling: view the polynomial as univariate in its
   highest-degree variable, recurse on the coefficients. *)
let rec creg_poly b (p : Poly.t) : int =
  match Poly.to_const p with
  | Some c -> creg b (Ratio.to_float c)
  | None ->
      let x, _ =
        List.fold_left
          (fun (bx, bd) v ->
            let d = Poly.degree_in v p in
            if d > bd then (v, d) else (bx, bd))
          ("", 0) (Poly.vars p)
      in
      let xr =
        match Hashtbl.find_opt b.var_reg x with
        | Some r -> r
        | None -> raise (Not_compilable ("unresolved variable " ^ x))
      in
      let cs = Poly.coeffs_in x p in
      let n = Array.length cs - 1 in
      let r = ref (creg_poly b cs.(n)) in
      for k = n - 1 downto 0 do
        if Poly.is_zero cs.(k) then r := fmul b !r xr
        else r := fmadd b !r xr (creg_poly b cs.(k))
      done;
      !r

let rec creg_s b (v : s) : int =
  match v with
  | Sconst c -> creg b c
  | Spoly p -> creg_poly b p
  | Sadd (x, y) -> fadd b (creg_s b x) (creg_s b y)
  | Smul (x, y) -> fmul b (creg_s b x) (creg_s b y)
  | Smax (x, y) -> fmax b (creg_s b x) (creg_s b y)
  | Smin (x, y) -> fmin b (creg_s b x) (creg_s b y)
  | Sfdiv (x, n) -> ffdiv b (creg_s b x) (float_of_int n)
  | Scdiv (x, n) -> fcdiv b (creg_s b x) (float_of_int n)
  | Sif (g, x, y) -> fsel b (creg_s b g) (creg_s b x) (creg_s b y)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile ?arch ?(mode = Inclusive) (model : Model_ir.t) ~fname ~sweep
    ~fixed : prog =
  (match Model_ir.find model fname with
  | Some _ -> ()
  | None -> invalid_arg (who_of_mode mode ^ ": no model for " ^ fname));
  let inclusive = mode <> Exclusive in
  let mns = Model_eval.mnemonic_order model ~fname ~inclusive in
  let lookup name =
    if List.mem name sweep then Spoly (Poly.var name)
    else
      match List.assoc_opt name fixed with
      | Some v -> Sconst (float_of_int v)
      | None -> raise (Model_eval.Missing_parameter (fname, name))
  in
  let ctx = { model; work = 0 } in
  let tbl = gather ctx ~inline_calls:inclusive ~fname lookup in
  let b =
    {
      nreg = List.length sweep;
      ops_rev = [];
      nops = 0;
      consts = Hashtbl.create 32;
      cse = Hashtbl.create 64;
      cval = Hashtbl.create 32;
      var_reg = Hashtbl.create 8;
    }
  in
  List.iteri (fun i v -> Hashtbl.replace b.var_reg v i) sweep;
  let value_of mn =
    Option.value ~default:(Sconst 0.0, Sconst 0.0) (Hashtbl.find_opt tbl mn)
  in
  let p_out, p_out_par =
    match mode with
    | Split ->
        let os =
          Array.map (fun mn -> creg_s b (fst (value_of mn))) mns
        in
        let op =
          Array.map (fun mn -> creg_s b (snd (value_of mn))) mns
        in
        (os, op)
    | Inclusive | Exclusive ->
        ( Array.map
            (fun mn ->
              let s, p = value_of mn in
              creg_s b (sadd s p))
            mns,
          [||] )
  in
  let init = Array.make (max b.nreg 1) 0.0 in
  Hashtbl.iter (fun c r -> init.(r) <- c) b.consts;
  {
    p_fname = fname;
    p_params = Array.of_list sweep;
    p_mnemonics = mns;
    p_nregs = max b.nreg 1;
    p_init = init;
    p_ops = Array.of_list (List.rev b.ops_rev);
    p_out;
    p_out_par;
    p_mode = mode;
    p_fp = Array.map (fun m -> List.mem m Model_eval.fp_mnemonics) mns;
    p_cost =
      (match arch with
      | None -> [||]
      | Some a -> Array.map (fun m -> Archdesc.cost_of_mnemonic a m) mns);
    p_arch = (match arch with None -> None | Some a -> Some a.Archdesc.name);
    p_clock_ghz = (match arch with None -> 0.0 | Some a -> a.Archdesc.clock_ghz);
  }

(* Structural soundness of a program — everything [run]'s unsafe
   accesses rely on.  Also the defense for disk-loaded programs. *)
let validate (p : prog) : bool =
  let n = p.p_nregs in
  let reg r = r >= 0 && r < n in
  let nm = Array.length p.p_mnemonics in
  n >= 1
  && Array.length p.p_init = n
  && Array.length p.p_params <= n
  && Array.length p.p_out = nm
  && (Array.length p.p_out_par = 0 || Array.length p.p_out_par = nm)
  && Array.length p.p_fp = nm
  && (Array.length p.p_cost = 0 || Array.length p.p_cost = nm)
  && Array.for_all reg p.p_out
  && Array.for_all reg p.p_out_par
  && Array.for_all
       (fun op ->
         match op with
         | Oadd (d, a, b) | Omul (d, a, b) | Omax (d, a, b) | Omin (d, a, b)
           ->
             reg d && reg a && reg b
         | Omadd (d, a, b, c) | Osel (d, a, b, c) ->
             reg d && reg a && reg b && reg c
         | Ofdiv (d, a, _) | Ocdiv (d, a, _) -> reg d && reg a)
       p.p_ops

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type runner = {
  r_prog : prog;
  r_regs : float array;
  r_out : float array;
  r_out_par : float array;
}

let runner p =
  {
    r_prog = p;
    r_regs = Array.copy p.p_init;
    r_out = Array.make (Array.length p.p_mnemonics) 0.0;
    r_out_par = Array.make (Array.length p.p_out_par) 0.0;
  }

(* The hot loop: no allocation, no bounds checks (the program is
   validated at construction / load), no name lookups. *)
let exec (r : runner) (args : int array) =
  let regs = r.r_regs in
  let np = Array.length r.r_prog.p_params in
  if Array.length args <> np then
    invalid_arg "Model_compile.run: wrong argument count";
  for i = 0 to np - 1 do
    Array.unsafe_set regs i (float_of_int (Array.unsafe_get args i))
  done;
  let ops = r.r_prog.p_ops in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Oadd (d, a, b) ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a +. Array.unsafe_get regs b)
    | Omul (d, a, b) ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a *. Array.unsafe_get regs b)
    | Omax (d, a, b) ->
        Array.unsafe_set regs d
          (Float.max (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | Omin (d, a, b) ->
        Array.unsafe_set regs d
          (Float.min (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | Omadd (d, a, b, c) ->
        Array.unsafe_set regs d
          ((Array.unsafe_get regs a *. Array.unsafe_get regs b)
          +. Array.unsafe_get regs c)
    | Ofdiv (d, a, n) ->
        Array.unsafe_set regs d
          (Float.of_int (int_of_float (floor (Array.unsafe_get regs a /. n))))
    | Ocdiv (d, a, n) ->
        Array.unsafe_set regs d
          (Float.of_int (int_of_float (ceil (Array.unsafe_get regs a /. n))))
    | Osel (d, g, a, b) ->
        Array.unsafe_set regs d
          (if Array.unsafe_get regs g >= 0.0 then Array.unsafe_get regs a
           else Array.unsafe_get regs b)
  done

let run (r : runner) (args : int array) : float array =
  exec r args;
  let regs = r.r_regs and out = r.r_out and po = r.r_prog.p_out in
  for i = 0 to Array.length po - 1 do
    Array.unsafe_set out i
      (Array.unsafe_get regs (Array.unsafe_get po i))
  done;
  out

let run_split (r : runner) (args : int array) : float array * float array =
  if r.r_prog.p_mode <> Split then
    invalid_arg "Model_compile.run_split: program not compiled with ~mode:Split";
  exec r args;
  let regs = r.r_regs in
  let out = r.r_out and po = r.r_prog.p_out in
  for i = 0 to Array.length po - 1 do
    Array.unsafe_set out i (Array.unsafe_get regs (Array.unsafe_get po i))
  done;
  let out2 = r.r_out_par and pp = r.r_prog.p_out_par in
  for i = 0 to Array.length pp - 1 do
    Array.unsafe_set out2 i (Array.unsafe_get regs (Array.unsafe_get pp i))
  done;
  (out, out2)

let args_of_env (p : prog) env =
  Array.map
    (fun name ->
      match List.assoc_opt name env with
      | Some v -> v
      | None -> raise (Model_eval.Missing_parameter (p.p_fname, name)))
    p.p_params

let eval (p : prog) ~env : (string * float) list =
  let r = runner p in
  let out = run r (args_of_env p env) in
  Array.to_list (Array.mapi (fun i m -> (m, out.(i))) p.p_mnemonics)

let eval_split (p : prog) ~env : (string * (float * float)) list =
  let r = runner p in
  let out, out2 = run_split r (args_of_env p env) in
  Array.to_list
    (Array.mapi (fun i m -> (m, (out.(i), out2.(i)))) p.p_mnemonics)

(* Derived metrics with arch constants folded at compile time. *)

let total (_ : prog) (out : float array) =
  Array.fold_left ( +. ) 0.0 out

let fpi (p : prog) (out : float array) =
  let acc = ref 0.0 in
  Array.iteri (fun i fp -> if fp then acc := !acc +. out.(i)) p.p_fp;
  !acc

let cycles (p : prog) (out : float array) =
  if Array.length p.p_cost = 0 then
    invalid_arg "Model_compile.cycles: program compiled without an arch";
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. (c *. out.(i))) p.p_cost;
  !acc

let seconds (p : prog) (out : float array) =
  cycles p out /. (p.p_clock_ghz *. 1e9)

(* ------------------------------------------------------------------ *)
(* Program cache: two Store tiers                                      *)
(* ------------------------------------------------------------------ *)

type stats = {
  hits : int;  (** served from a tier without compiling *)
  misses : int;  (** compiled fresh *)
  disk_hits : int;  (** subset of [hits] served from disk *)
  fallbacks : int;  (** requests answered "not compilable" *)
}

(* Programs in memory and on disk; "not compilable" verdicts in memory
   only, so sweeps over an uncompilable model don't re-attempt
   compilation per binding.  The program tier gets no I/O fault
   schedule and no retries. *)
type cache = { c_progs : prog Store.t; c_rejected : string Store.t }

let prog_tier = Store.tier ~suffix:".prog" ~magic:"MIRAPROG1\n" ~validate

let create_cache ?(capacity = 256) ?dir () =
  {
    c_progs = Store.create prog_tier ~capacity ~dir;
    c_rejected = Store.memory ~capacity;
  }

let stats c =
  let p = Store.counters c.c_progs and r = Store.counters c.c_rejected in
  {
    hits = p.Store.mem_hits + p.Store.disk_hits;
    misses = p.Store.stores;
    disk_hits = p.Store.disk_hits;
    fallbacks = r.Store.mem_hits + r.Store.stores;
  }

let cache_version = "mira-prog-1"

let mode_tag = function Inclusive -> "i" | Exclusive -> "x" | Split -> "s"

(* The content key: anything that can change the compiled program. *)
let key ~digest ?arch ~mode ~fname ~sweep ~fixed () =
  let b = Buffer.create 160 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\x00'
  in
  add cache_version;
  add digest;
  add fname;
  add (mode_tag mode);
  List.iter add sweep;
  add "|";
  List.iter (fun (k, v) -> add (Printf.sprintf "%s=%d" k v)) fixed;
  add "|";
  (match arch with
  | None -> add "-"
  | Some a ->
      add a.Archdesc.name;
      add (Stdlib.Digest.to_hex (Stdlib.Digest.string (Archdesc.to_text a))));
  Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents b))

(* Look up or compile.  [digest] must identify the model's content
   exactly: the daemon passes the analysis cache's content key of the
   source, which covers the source text, the codegen level and the
   cache version.  Raises like [compile] for model / parameter errors;
   "not compilable" is an [Error] so callers fall back to the
   interpreter. *)
let get c ~digest ?arch ?(mode = Inclusive) ~model ~fname ~sweep ~fixed () :
    (prog, string) result =
  let k = key ~digest ?arch ~mode ~fname ~sweep ~fixed () in
  let find t = Store.find t ~faults:None ~retries:0 k in
  let add t v = Store.add t ~faults:None ~retries:0 k v in
  match find c.c_rejected with
  | Some (reason, _) -> Error reason
  | None -> (
      match find c.c_progs with
      | Some (p, _) -> Ok p
      | None -> (
          match compile ?arch ~mode model ~fname ~sweep ~fixed with
          | p ->
              add c.c_progs p;
              Ok p
          | exception Not_compilable reason ->
              add c.c_rejected reason;
              Error reason))
