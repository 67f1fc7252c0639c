module Monomial = struct
  type t = (string * int) list

  let compare (a : t) (b : t) =
    (* Graded lexicographic: lower total degree first, then lex. *)
    let da = List.fold_left (fun s (_, e) -> s + e) 0 a in
    let db = List.fold_left (fun s (_, e) -> s + e) 0 b in
    if da <> db then Stdlib.compare da db else Stdlib.compare a b

  let degree (m : t) = List.fold_left (fun s (_, e) -> s + e) 0 m

  (* Merge two sorted monomials, adding exponents. *)
  let rec mul (a : t) (b : t) : t =
    match (a, b) with
    | [], m | m, [] -> m
    | (x, i) :: a', (y, j) :: b' ->
        let c = String.compare x y in
        if c < 0 then (x, i) :: mul a' b
        else if c > 0 then (y, j) :: mul a b'
        else (x, i + j) :: mul a' b'
end

module M = Map.Make (Monomial)

type t = Ratio.t M.t
(* Invariant: no zero coefficients are stored. *)

let zero = M.empty
let normal_add m c map =
  let c' = match M.find_opt m map with None -> c | Some d -> Ratio.add c d in
  if Ratio.is_zero c' then M.remove m map else M.add m c' map

let const c = if Ratio.is_zero c then zero else M.singleton [] c
let of_int n = const (Ratio.of_int n)
let one = of_int 1
let var x = M.singleton [ (x, 1) ] Ratio.one
let add a b = M.fold normal_add a b
let neg a = M.map Ratio.neg a
let sub a b = add a (neg b)

let scale c a =
  if Ratio.is_zero c then zero else M.map (fun d -> Ratio.mul c d) a

let mul a b =
  M.fold
    (fun ma ca acc ->
      M.fold
        (fun mb cb acc -> normal_add (Monomial.mul ma mb) (Ratio.mul ca cb) acc)
        b acc)
    a zero

let pow a k =
  assert (k >= 0);
  let rec go acc k = if k = 0 then acc else go (mul acc a) (k - 1) in
  go one k

let sum = List.fold_left add zero
let product = List.fold_left mul one
let equal = M.equal Ratio.equal
let compare = M.compare Ratio.compare
let is_zero = M.is_empty

let to_const p =
  if is_zero p then Some Ratio.zero
  else
    match M.bindings p with [ ([], c) ] -> Some c | _ -> None

let degree p = M.fold (fun m _ d -> max d (Monomial.degree m)) p 0

let degree_in x p =
  M.fold
    (fun m _ d ->
      match List.assoc_opt x m with None -> d | Some e -> max d e)
    p 0

let vars p =
  let module S = Set.Make (String) in
  M.fold
    (fun m _ s -> List.fold_left (fun s (x, _) -> S.add x s) s m)
    p S.empty
  |> S.elements

let coeffs_in x p =
  let d = degree_in x p in
  let cs = Array.make (d + 1) zero in
  M.iter
    (fun m c ->
      let e = match List.assoc_opt x m with None -> 0 | Some e -> e in
      let m' = List.filter (fun (y, _) -> y <> x) m in
      cs.(e) <- normal_add m' c cs.(e))
    p;
  cs

let subst x q p =
  M.fold
    (fun m c acc ->
      let e = match List.assoc_opt x m with None -> 0 | Some e -> e in
      let m' = List.filter (fun (y, _) -> y <> x) m in
      let base = M.singleton m' c in
      add acc (mul base (pow q e)))
    p zero

let eval lookup p =
  M.fold
    (fun m c acc ->
      let v =
        List.fold_left
          (fun v (x, e) -> Ratio.mul v (Ratio.pow (lookup x) e))
          c m
      in
      Ratio.add acc v)
    p Ratio.zero

let fold_terms f p init = M.fold f p init

let pp_term ppf (m, c) =
  let pow_str (x, e) = if e = 1 then x else Printf.sprintf "%s^%d" x e in
  match m with
  | [] -> Ratio.pp ppf c
  | _ ->
      let vars = String.concat "*" (List.map pow_str m) in
      if Ratio.equal c Ratio.one then Format.pp_print_string ppf vars
      else if Ratio.equal c Ratio.minus_one then Format.fprintf ppf "-%s" vars
      else Format.fprintf ppf "%a*%s" Ratio.pp c vars

let pp ppf p =
  if is_zero p then Format.pp_print_string ppf "0"
  else
    let terms = List.rev (M.bindings p) in
    List.iteri
      (fun i (m, c) ->
        if i = 0 then pp_term ppf (m, c)
        else if Ratio.sign c >= 0 then Format.fprintf ppf " + %a" pp_term (m, c)
        else Format.fprintf ppf " - %a" pp_term (m, Ratio.neg c))
      terms

let to_string p = Format.asprintf "%a" pp p

(* A compiled match: this runs once per variable occurrence of every
   rendered model, where a list scan is measurably slower. *)
let rec shadows_python = function
  | "m" | "bump" | "handle_function_call" | "max" | "min" | "False" | "None"
  | "True" | "and" | "as" | "assert" | "async" | "await" | "break" | "class"
  | "continue" | "def" | "del" | "elif" | "else" | "except" | "finally"
  | "for" | "from" | "global" | "if" | "import" | "in" | "is" | "lambda"
  | "nonlocal" | "not" | "or" | "pass" | "raise" | "return" | "try"
  | "while" | "with" | "yield" ->
      true
  | x ->
      let n = String.length x in
      n > 1 && x.[n - 1] = '_' && shadows_python (String.sub x 0 (n - 1))

let python_var x = if shadows_python x then x ^ "_" else x

(* Renders straight into [b]: polynomials appear as the leaves of
   symbolic-expression towers that can carry tens of thousands of
   them, so the per-leaf intermediate strings of a concat-based
   renderer dominate emission time. *)
let add_python b p =
  if is_zero p then Buffer.add_string b "0"
  else begin
    let term (m, c) =
      let n = Ratio.num c and d = Ratio.den c in
      if n <> 1 || m = [] then Buffer.add_string b (string_of_int n);
      List.iteri
        (fun i (x, e) ->
          if i > 0 || n <> 1 || m = [] then Buffer.add_char b '*';
          Buffer.add_string b (python_var x);
          if e <> 1 then (
            Buffer.add_string b "**";
            Buffer.add_string b (string_of_int e)))
        m;
      if d <> 1 then (
        Buffer.add_string b "//";
        Buffer.add_string b (string_of_int d))
    in
    let terms q =
      List.iteri
        (fun i t ->
          if i > 0 then Buffer.add_string b " + ";
          term t)
        (List.rev (M.bindings q))
    in
    (* Integer-valued polynomials may have rational coefficients whose
       sum is integral; group by denominator so Python // stays exact:
       we instead emit a single exact form (num)/(den) folded over a
       common denominator. *)
    let lcm a b = a / (let rec g a b = if b = 0 then a else g b (a mod b) in g a b) * b in
    let common_den = M.fold (fun _ c d -> lcm d (Ratio.den c)) p 1 in
    if common_den = 1 then terms p
    else begin
      Buffer.add_char b '(';
      terms (scale (Ratio.of_int common_den) p);
      Buffer.add_string b ")//";
      Buffer.add_string b (string_of_int common_den)
    end
  end

let to_python p =
  let b = Buffer.create 64 in
  add_python b p;
  Buffer.contents b
