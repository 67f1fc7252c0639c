open Mira_symexpr

type result = Closed of Expr.t | Deferred of Domain.t

exception Give_up

let rec depends x (e : Expr.t) =
  match e with
  | P p -> Poly.degree_in x p > 0
  | Add (a, b) | Mul (a, b) | Max (a, b) | Min (a, b) ->
      depends x a || depends x b
  | Fdiv (a, _) | Cdiv (a, _) -> depends x a
  | If (g, a, b) -> Poly.degree_in x g > 0 || depends x a || depends x b

(* Non-emptiness guard for the integer range [lo, hi]: hi - lo + 1 >= 0
   covers the empty boundary case hi = lo - 1 where Faulhaber already
   yields 0. *)
let nonempty_guard lo hi = Poly.add (Poly.sub hi lo) Poly.one

(* Number of points in [lo, hi] with step 1. *)
let range_count ~assume lo hi =
  let n = Poly.add (Poly.sub hi lo) Poly.one in
  if assume then Expr.poly n else Expr.clamp0 (Expr.poly n)

(* g viewed as c*x + r with c a nonzero integer constant and r free of
   x.  Returns None when g is not of that shape. *)
let split_info x g =
  if Poly.degree_in x g <> 1 then None
  else
    let cs = Poly.coeffs_in x g in
    let c = cs.(1) and r = cs.(0) in
    match Poly.to_const c with
    | Some q when Ratio.is_integer q && not (Ratio.is_zero q) ->
        Some (Ratio.to_int_exn q, r)
    | _ -> None

(* ceil (p / c) for positive integer c, as a polynomial when exact. *)
let ceil_div_poly p c =
  if c = 1 then Some p
  else
    match Poly.to_const p with
    | Some q ->
        Some (Poly.of_int (Ratio.ceil (Ratio.div q (Ratio.of_int c))))
    | None -> None

(* Leaves of a same-constructor Max (resp. Min) tree. *)
let rec max_leaves (e : Expr.t) =
  match e with Max (a, b) -> max_leaves a @ max_leaves b | e -> [ e ]

let rec min_leaves (e : Expr.t) =
  match e with Min (a, b) -> min_leaves a @ min_leaves b | e -> [ e ]

let as_poly (e : Expr.t) =
  match Expr.to_poly e with Some p -> p | None -> raise Give_up

(* Sum [e] over integer x in [lo, hi] (step 1).  [lo] and [hi] are
   polynomials free of x.  When [assume] holds, the base range is
   trusted to be non-empty. *)
let rec sum_expr ~assume x ~lo ~hi (e : Expr.t) : Expr.t =
  if not (depends x e) then Expr.mul e (range_count ~assume lo hi)
  else
    match e with
    | P p ->
        let f = Expr.poly (Faulhaber.sum_range x ~lo ~hi p) in
        if assume then f else Expr.if_ (nonempty_guard lo hi) f Expr.zero
    | Add (a, b) ->
        Expr.add (sum_expr ~assume x ~lo ~hi a) (sum_expr ~assume x ~lo ~hi b)
    | Mul (a, b) when not (depends x a) ->
        Expr.mul a (sum_expr ~assume x ~lo ~hi b)
    | Mul (a, b) when not (depends x b) ->
        Expr.mul (sum_expr ~assume x ~lo ~hi a) b
    | Max _ ->
        let leaves = max_leaves e in
        split_extremum ~assume ~is_max:true x ~lo ~hi leaves
    | Min _ ->
        let leaves = min_leaves e in
        split_extremum ~assume ~is_max:false x ~lo ~hi leaves
    | If (g, a, b) ->
        if Poly.degree_in x g > 0 then
          split_if ~assume x ~lo ~hi g a b
        else Expr.if_ g (sum_expr ~assume x ~lo ~hi a) (sum_expr ~assume x ~lo ~hi b)
    | Mul _ | Fdiv _ | Cdiv _ -> raise Give_up

(* Sum a Max/Min tree by resolving its first two leaves with an
   interval split, then recursing on the reduced tree. *)
and split_extremum ~assume ~is_max x ~lo ~hi leaves =
  match leaves with
  | [ single ] -> sum_expr ~assume x ~lo ~hi single
  | l1 :: l2 :: rest ->
      let p1 = as_poly l1 and p2 = as_poly l2 in
      let rebuild winner =
        let op = if is_max then Expr.max_ else Expr.min_ in
        List.fold_left op winner rest
      in
      let g = Poly.sub p1 p2 in
      (* g >= 0 means p1 >= p2: the max is p1, the min is p2. *)
      let on_true = rebuild (if is_max then l1 else l2) in
      let on_false = rebuild (if is_max then l2 else l1) in
      if Poly.degree_in x g > 0 then split_if ~assume x ~lo ~hi g on_true on_false
      else Expr.if_ g (sum_expr ~assume x ~lo ~hi on_true)
             (sum_expr ~assume x ~lo ~hi on_false)
  | [] -> assert false

(* Split the summation range at the breakpoint of guard g = c*x + r. *)
and split_if ~assume x ~lo ~hi g on_true on_false =
  ignore assume;
  match split_info x g with
  | None -> raise Give_up
  | Some (c, r) ->
      (* Clipped sub-ranges may be empty, so sub-sums never assume. *)
      let sum_piece lo' hi' e = sum_expr ~assume:false x ~lo:lo' ~hi:hi' e in
      (* Sum over [max(lo,a), hi]: decide the max statically if the
         difference is constant, otherwise emit a parameter guard. *)
      let with_lo a k =
        match Poly.to_const (Poly.sub a lo) with
        | Some q -> if Ratio.sign q >= 0 then k a else k lo
        | None -> Expr.if_ (Poly.sub a lo) (k a) (k lo)
      in
      let with_hi b k =
        match Poly.to_const (Poly.sub hi b) with
        | Some q -> if Ratio.sign q >= 0 then k b else k hi
        | None -> Expr.if_ (Poly.sub hi b) (k b) (k hi)
      in
      if c > 0 then
        (* g >= 0 iff x >= t, t = ceil(-r/c). *)
        match ceil_div_poly (Poly.neg r) c with
        | None -> raise Give_up
        | Some t ->
            let true_part = with_lo t (fun lo' -> sum_piece lo' hi on_true) in
            let false_part =
              with_hi (Poly.sub t Poly.one) (fun hi' ->
                  sum_piece lo hi' on_false)
            in
            Expr.add true_part false_part
      else
        (* c < 0: g >= 0 iff x <= t, t = floor(r/(-c)). *)
        let t_opt =
          if c = -1 then Some r
          else
            match Poly.to_const r with
            | Some q ->
                Some (Poly.of_int (Ratio.floor (Ratio.div q (Ratio.of_int (-c)))))
            | None -> None
        in
        match t_opt with
        | None -> raise Give_up
        | Some t ->
            let true_part = with_hi t (fun hi' -> sum_piece lo hi' on_true) in
            let false_part =
              with_lo (Poly.add t Poly.one) (fun lo' ->
                  sum_piece lo' hi on_false)
            in
            Expr.add true_part false_part

(* Count of multiples: points x in [lo, hi] with x + r ≡ 0 (mod m),
   i.e. multiples of m in [lo + r, hi + r]:
   floor((hi+r)/m) - ceil((lo+r)/m) + 1, clamped at 0. *)
let lattice_count ~assume lo hi r m =
  let hi' = Expr.fdiv (Expr.poly (Poly.add hi r)) m in
  let lo' = Expr.cdiv (Expr.poly (Poly.add lo r)) m in
  let n = Expr.add (Expr.sub hi' lo') Expr.one in
  if assume then n else Expr.max_ Expr.zero n

(* One loop level: sum [e] over [x] with the level's bounds, step and
   the guards attached to this level. *)
let rec sum_level ~assume x ~lo ~hi ~step ~(extra : Domain.guard list) e =
  (* Peel modular guards first (complement rule for Mod_ne). *)
  let is_mod = function
    | Domain.Mod_eq _ | Domain.Mod_ne _ -> true
    | Domain.Ge _ -> false
  in
  match List.partition is_mod extra with
  | Domain.Mod_ne (p, m) :: mods, affine ->
      let all = sum_level ~assume x ~lo ~hi ~step ~extra:(mods @ affine) e in
      let eq =
        sum_level ~assume:false x ~lo ~hi ~step
          ~extra:(Domain.Mod_eq (p, m) :: (mods @ affine))
          e
      in
      Expr.sub all eq
  | Domain.Mod_eq (p, m) :: mods, affine ->
      if mods <> [] || affine <> [] then raise Give_up;
      if step <> 1 then raise Give_up;
      if depends x e then raise Give_up;
      (match split_info x p with
      | Some (1, r) -> Expr.mul e (lattice_count ~assume lo hi r m)
      | Some (-1, r) ->
          (* -x + r ≡ 0 (mod m) is x ≡ r (mod m): same as x + (-r). *)
          Expr.mul e (lattice_count ~assume lo hi (Poly.neg r) m)
      | _ -> raise Give_up)
  | [], affine -> (
      (* Affine guards wrap the summand in If nodes; interval splitting
         resolves them. *)
      let e =
        List.fold_left
          (fun e g ->
            match g with
            | Domain.Ge p -> Expr.if_ p e Expr.zero
            | Domain.Mod_eq _ | Domain.Mod_ne _ -> assert false)
          e affine
      in
      match step with
      | 1 -> sum_expr ~assume x ~lo ~hi e
      | s ->
          if depends x e then raise Give_up
          else
            let iters =
              Expr.add (Expr.fdiv (Expr.poly (Poly.sub hi lo)) s) Expr.one
            in
            let iters = if assume then iters else Expr.max_ Expr.zero iters in
            Expr.mul e iters)
  | _ :: _, _ -> raise Give_up

let guard_vars = function
  | Domain.Ge p | Domain.Mod_eq (p, _) | Domain.Mod_ne (p, _) -> Poly.vars p

let deepest_level_of_guard (t : Domain.t) g =
  let vs = guard_vars g in
  let rec go i best = function
    | [] -> best
    | l :: rest ->
        go (i + 1) (if List.mem l.Domain.var vs then i else best) rest
  in
  go 0 (-1) t.levels

(* Partition the level indices into independent groups: two levels
   share a group when a bound of one names the other's variable, or a
   guard names both.  A point of the domain is then a point of each
   group's sub-nest, so the count is the product of the groups' counts.
   Groups come innermost first (ordered by their innermost level) and
   list their levels outermost first. *)
let independent_groups (t : Domain.t) =
  let n = List.length t.levels in
  let group = Array.init n Fun.id in
  let index v = List.find_index (fun (l : Domain.level) -> l.var = v) t.levels in
  let link vs =
    match List.filter_map index vs with
    | [] -> ()
    | i :: rest ->
        List.iter
          (fun j ->
            let a = group.(i) and b = group.(j) in
            Array.iteri (fun k g -> if g = b then group.(k) <- a) group)
          rest
  in
  List.iter
    (fun (l : Domain.level) -> link ((l.var :: Poly.vars l.lo) @ Poly.vars l.hi))
    t.levels;
  List.iter (fun g -> link (guard_vars g)) t.guards;
  let ids = List.init n Fun.id in
  List.filter_map
    (fun i ->
      if List.exists (fun k -> k > i && group.(k) = group.(i)) ids then None
      else Some (List.filter (fun k -> group.(k) = group.(i)) ids))
    (List.rev ids)

(* The paper's counting convention (§III-C2): source loop ranges are
   non-empty as written, so the polyhedral model multiplies level counts
   without emptiness guards.  Pieces of a range split at a guard's
   breakpoint may be empty and are always guarded (see [split_if]). *)
let assume_nonempty = true

let count (t : Domain.t) : result =
  match Domain.validate t with
  | Error _ -> Deferred t
  | Ok () -> (
      try
        let n = List.length t.levels in
        let guards_at = Array.make (max n 1) [] in
        let param_guards = ref [] in
        List.iter
          (fun g ->
            let d = deepest_level_of_guard t g in
            if d < 0 then param_guards := g :: !param_guards
            else guards_at.(d) <- guards_at.(d) @ [ g ])
          t.guards;
        let levels = Array.of_list t.levels in
        (* Sum 1 over the levels [ids] (outermost first), innermost
           level first. *)
        let sum_nest ids =
          List.fold_right
            (fun i e ->
              let l = levels.(i) in
              sum_level ~assume:assume_nonempty l.var ~lo:l.lo ~hi:l.hi
                ~step:l.step ~extra:guards_at.(i) e)
            ids Expr.one
        in
        let all = List.init n Fun.id in
        (* A guard-free nest is already a product of polynomials, and a
           lone group's count is returned as is: multiplying it by 1
           would copy a constant that many entries share. *)
        let e =
          if t.guards = [] then sum_nest all
          else
            match independent_groups t with
            | [] | [ _ ] -> sum_nest all
            | g :: gs ->
                List.fold_left
                  (fun acc g -> Expr.mul acc (sum_nest g))
                  (sum_nest g) gs
        in
        let e =
          List.fold_left
            (fun e g ->
              match g with
              | Domain.Ge p -> Expr.if_ p e Expr.zero
              | Domain.Mod_eq _ | Domain.Mod_ne _ -> raise Give_up)
            e !param_guards
        in
        Closed e
      with Give_up -> Deferred t)

let eval ~params = function
  | Closed e -> Expr.eval_int (fun x -> List.assoc x params) e
  | Deferred t -> Enumerate.count ~params t

let eval_float ~params = function
  | Closed e -> Expr.eval_float (fun x -> List.assoc x params) e
  | Deferred t ->
      let iparams = List.map (fun (k, v) -> (k, int_of_float v)) params in
      float_of_int (Enumerate.count ~params:iparams t)

let expr = function Closed e -> Some e | Deferred _ -> None

let pp ppf = function
  | Closed e -> Expr.pp ppf e
  | Deferred t -> Format.fprintf ppf "deferred(@[%a@])" Domain.pp t
