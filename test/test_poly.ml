open Mira_symexpr
open Mira_poly

let p_int = Poly.of_int
let v = Poly.var

(* The paper's Listing 1: for (i = 0; i < 10; i++), i.e. 0 <= i <= 9. *)
let listing1 =
  Domain.add_level Domain.empty
    (Domain.level "i" ~lo:(p_int 0) ~hi:(p_int 9))

(* Listing 2: for (i = 1; i <= 4; i++) for (j = i+1; j <= 6; j++). *)
let listing2 =
  let d =
    Domain.add_level Domain.empty
      (Domain.level "i" ~lo:(p_int 1) ~hi:(p_int 4))
  in
  Domain.add_level d
    (Domain.level "j" ~lo:(Poly.add (v "i") Poly.one) ~hi:(p_int 6))

(* Listing 4: Listing 2 plus `if (j > 4)`, i.e. j - 5 >= 0. *)
let listing4 =
  Domain.add_guard listing2 (Domain.Ge (Poly.sub (v "j") (p_int 5)))

(* Listing 5: Listing 2 plus `if (j % 4 != 0)`. *)
let listing5 = Domain.add_guard listing2 (Domain.Mod_ne (v "j", 4))

let listing5_eq = Domain.add_guard listing2 (Domain.Mod_eq (v "j", 4))

(* Parametric STREAM-style loop: for (i = 0; i < n; i++). *)
let rect_n =
  Domain.add_level Domain.empty
    (Domain.level "i" ~lo:(p_int 0) ~hi:(Poly.sub (v "n") Poly.one))

(* Parametric triangular nest: i in 0..n-1, j in i..n-1. *)
let tri_n =
  let d = rect_n in
  Domain.add_level d
    (Domain.level "j" ~lo:(v "i") ~hi:(Poly.sub (v "n") Poly.one))

(* miniFE's 27-point assembly: cells ia in 0..na-1 and offsets da in
   -1..1 on each axis, counted where the neighbour is in bounds,
   0 <= ia + da <= na - 1.  Only (ia, da) pairs share a guard, so the
   count is a product of one factor 3na - 2 per axis. *)
let stencil27 =
  let axes = [ "z"; "y"; "x" ] in
  let n a = v ("n" ^ a) in
  let cell a = Domain.level ("i" ^ a) ~lo:(p_int 0) ~hi:(Poly.sub (n a) Poly.one) in
  let offset a = Domain.level ("d" ^ a) ~lo:(p_int (-1)) ~hi:(p_int 1) in
  let d =
    List.fold_left Domain.add_level Domain.empty
      (List.map cell axes @ List.map offset axes)
  in
  List.fold_left
    (fun d a ->
      let j = Poly.add (v ("i" ^ a)) (v ("d" ^ a)) in
      Domain.add_guard
        (Domain.add_guard d (Domain.Ge j))
        (Domain.Ge (Poly.sub (Poly.sub (n a) Poly.one) j)))
    d (List.rev axes)

let closed_exn = function
  | Count.Closed e -> e
  | Count.Deferred _ -> Alcotest.fail "expected closed-form count"

let count_at params dom = Count.eval ~params (Count.count dom)

let domain_tests =
  let open Alcotest in
  [
    test_case "validate accepts affine nests" `Quick (fun () ->
        check bool "listing2 valid" true (Domain.validate listing2 = Ok ());
        check bool "tri_n valid" true (Domain.validate tri_n = Ok ()));
    test_case "validate rejects non-affine bound" `Quick (fun () ->
        let bad =
          Domain.add_level rect_n
            (Domain.level "j" ~lo:(p_int 0) ~hi:(Poly.mul (v "i") (v "i")))
        in
        match Domain.validate bad with
        | Error [ Domain.Nonaffine_bound { var = "j"; _ } ] -> ()
        | _ -> fail "expected Nonaffine_bound for j");
    test_case "validate rejects bad step and duplicate var" `Quick (fun () ->
        let bad =
          Domain.add_level rect_n
            (Domain.level ~step:0 "i" ~lo:(p_int 0) ~hi:(p_int 5))
        in
        match Domain.validate bad with
        | Error errs ->
            check int "two violations" 2 (List.length errs)
        | Ok () -> fail "expected violations");
    test_case "parameters excludes loop vars" `Quick (fun () ->
        check (list string) "params of tri_n" [ "n" ] (Domain.parameters tri_n);
        check (list string) "params of listing2" []
          (Domain.parameters listing2));
    test_case "allows polynomial parameter bounds" `Quick (fun () ->
        (* for i = 0 .. n*m - 1 is affine in i though quadratic in params *)
        let d =
          Domain.add_level Domain.empty
            (Domain.level "i" ~lo:(p_int 0)
               ~hi:(Poly.sub (Poly.mul (v "n") (v "m")) Poly.one))
        in
        check bool "valid" true (Domain.validate d = Ok ()));
  ]

let enumerate_tests =
  let open Alcotest in
  [
    test_case "listing1 has 10 points" `Quick (fun () ->
        check int "count" 10 (Enumerate.count ~params:[] listing1));
    test_case "listing2 has 14 points" `Quick (fun () ->
        check int "count" 14 (Enumerate.count ~params:[] listing2));
    test_case "listing4 (if j > 4) has 8 points" `Quick (fun () ->
        check int "count" 8 (Enumerate.count ~params:[] listing4));
    test_case "listing5 (j % 4 != 0) has 11 points" `Quick (fun () ->
        check int "count" 11 (Enumerate.count ~params:[] listing5));
    test_case "points are ordered lexicographically" `Quick (fun () ->
        let pts = Enumerate.points ~params:[] listing2 in
        check int "14 points" 14 (List.length pts);
        check bool "first point (1,2)" true (List.hd pts = [| 1; 2 |]));
    test_case "parametric evaluation" `Quick (fun () ->
        check int "rect 7" 7 (Enumerate.count ~params:[ ("n", 7) ] rect_n);
        check int "tri 5" 15 (Enumerate.count ~params:[ ("n", 5) ] tri_n));
    test_case "step respects stride" `Quick (fun () ->
        let d =
          Domain.add_level Domain.empty
            (Domain.level ~step:3 "i" ~lo:(p_int 0) ~hi:(p_int 10))
        in
        check int "0,3,6,9" 4 (Enumerate.count ~params:[] d));
    test_case "negative modulo handled" `Quick (fun () ->
        let d =
          Domain.add_guard
            (Domain.add_level Domain.empty
               (Domain.level "i" ~lo:(p_int (-6)) ~hi:(p_int 6)))
            (Domain.Mod_eq (v "i", 4))
        in
        (* -4, 0, 4 *)
        check int "multiples of 4" 3 (Enumerate.count ~params:[] d));
  ]

let count_tests =
  let open Alcotest in
  [
    test_case "listing1 closed form = 10" `Quick (fun () ->
        let e = closed_exn (Count.count listing1) in
        check bool "constant 10" true (Expr.equal e (Expr.of_int 10)));
    test_case "listing2 closed form = 14" `Quick (fun () ->
        let e = closed_exn (Count.count listing2) in
        check bool "constant 14" true (Expr.equal e (Expr.of_int 14)));
    test_case "listing4 closed form = 8" `Quick (fun () ->
        check int "count" 8 (count_at [] listing4));
    test_case "listing5 via complement = 11" `Quick (fun () ->
        check int "count" 11 (count_at [] listing5);
        check int "mod-eq part" 3 (count_at [] listing5_eq));
    test_case "rectangular parametric count is n" `Quick (fun () ->
        let e = closed_exn (Count.count rect_n) in
        check bool "= n" true (Expr.equal e (Expr.var "n")));
    test_case "triangular parametric count is n(n+1)/2" `Quick (fun () ->
        let e = closed_exn (Count.count tri_n) in
        let expected =
          Expr.poly
            (Poly.scale (Ratio.make 1 2)
               (Poly.mul (v "n") (Poly.add (v "n") Poly.one)))
        in
        check bool "= n(n+1)/2" true (Expr.equal e expected));
    test_case "3-deep rectangular nest n*m*k" `Quick (fun () ->
        let d =
          List.fold_left Domain.add_level Domain.empty
            [
              Domain.level "i" ~lo:(p_int 0) ~hi:(Poly.sub (v "n") Poly.one);
              Domain.level "j" ~lo:(p_int 0) ~hi:(Poly.sub (v "m") Poly.one);
              Domain.level "k" ~lo:(p_int 0) ~hi:(Poly.sub (v "p") Poly.one);
            ]
        in
        let e = closed_exn (Count.count d) in
        check int "4*5*6" 120
          (Expr.eval_int
             (function "n" -> 4 | "m" -> 5 | "p" -> 6 | _ -> assert false)
             e));
    test_case "strided loop count" `Quick (fun () ->
        let d =
          Domain.add_level Domain.empty
            (Domain.level ~step:3 "i" ~lo:(p_int 0) ~hi:(p_int 10))
        in
        check int "4 iterations" 4 (count_at [] d));
    test_case "parametric guard splits on parameter" `Quick (fun () ->
        (* i in 0..9, constraint i <= n: count = min(10, n+1) clamped *)
        let d =
          Domain.add_guard
            (Domain.add_level Domain.empty
               (Domain.level "i" ~lo:(p_int 0) ~hi:(p_int 9)))
            (Domain.Ge (Poly.sub (v "n") (v "i")))
        in
        check int "n=3 -> 4" 4 (count_at [ ("n", 3) ] d);
        check int "n=20 -> 10" 10 (count_at [ ("n", 20) ] d);
        check int "n=-1 -> 0" 0 (count_at [ ("n", -1) ] d));
    test_case "branch constraint inside parametric nest" `Quick (fun () ->
        (* i in 1..n, j in i+1..6, if j > 4 — listing 4 with parametric
           outer bound. *)
        let d =
          let d0 =
            Domain.add_level Domain.empty
              (Domain.level "i" ~lo:(p_int 1) ~hi:(v "n"))
          in
          let d1 =
            Domain.add_level d0
              (Domain.level "j" ~lo:(Poly.add (v "i") Poly.one) ~hi:(p_int 6))
          in
          Domain.add_guard d1 (Domain.Ge (Poly.sub (v "j") (p_int 5)))
        in
        check int "n=4 -> 8" 8 (count_at [ ("n", 4) ] d);
        let brute n =
          Enumerate.count ~params:[ ("n", n) ]
            {
              d with
              levels = d.levels;
            }
        in
        List.iter
          (fun n ->
            check int (Printf.sprintf "n=%d matches enumeration" n) (brute n)
              (count_at [ ("n", n) ] d))
          [ 1; 2; 3; 4; 5 ]);
    test_case "mira count matches paper fig 4 narrative" `Quick (fun () ->
        (* Introducing the constraint shrinks the domain: 14 -> 8. *)
        check bool "smaller" true (count_at [] listing4 < count_at [] listing2));
    test_case "27-point stencil count is a product of per-axis factors"
      `Quick (fun () ->
        let e = closed_exn (Count.count stencil27) in
        for nx = 1 to 6 do
          for ny = 1 to 6 do
            for nz = 1 to 6 do
              let env = function
                | "nx" -> nx
                | "ny" -> ny
                | "nz" -> nz
                | x -> failf "unexpected variable %s" x
              in
              check int
                (Printf.sprintf "(3nx-2)(3ny-2)(3nz-2) at %d,%d,%d" nx ny nz)
                (((3 * nx) - 2) * ((3 * ny) - 2) * ((3 * nz) - 2))
                (Expr.eval_int env e)
            done
          done
        done;
        let bytes = String.length (Expr.to_python e) in
        check bool
          (Printf.sprintf "python is %d bytes, under 4 KB" bytes)
          true (bytes < 4096));
  ]

(* Property: for random affine (possibly triangular) 2-nests with a
   random affine guard, the symbolic count evaluated at the parameters
   equals brute-force enumeration. *)
let random_nest_gen =
  let open QCheck.Gen in
  let* lo1 = int_range (-3) 3 in
  let* span1 = int_range 0 8 in
  let* dep = int_range (-1) 1 in
  let* off = int_range (-2) 4 in
  let* span2 = int_range 0 8 in
  let* guard_c1 = int_range (-1) 1 in
  let* guard_c2 = int_range (-1) 1 in
  let* guard_k = int_range (-6) 6 in
  let* with_guard = bool in
  let lo2 = Poly.add (Poly.scale (Ratio.of_int dep) (v "i")) (p_int off) in
  let hi2 = Poly.add lo2 (p_int span2) in
  (* hi2 - lo2 = span2 >= 0, so inner range is always non-empty: the
     assume-nonempty convention holds by construction. *)
  let d =
    List.fold_left Domain.add_level Domain.empty
      [
        Domain.level "i" ~lo:(p_int lo1) ~hi:(p_int (lo1 + span1));
        Domain.level "j" ~lo:lo2 ~hi:hi2;
      ]
  in
  let d =
    if with_guard then
      Domain.add_guard d
        (Domain.Ge
           (Poly.sum
              [
                Poly.scale (Ratio.of_int guard_c1) (v "i");
                Poly.scale (Ratio.of_int guard_c2) (v "j");
                p_int guard_k;
              ]))
    else d
  in
  return d

let nest_arb =
  QCheck.make
    ~print:(fun d -> Format.asprintf "%a" Domain.pp d)
    random_nest_gen

(* Three-level nests with up to two guards: deeper stress for the
   interval-splitting machinery. *)
let random_nest3_gen =
  let open QCheck.Gen in
  let* lo1 = int_range (-2) 2 in
  let* span1 = int_range 0 5 in
  let* dep2 = int_range (-1) 1 in
  let* off2 = int_range (-2) 3 in
  let* span2 = int_range 0 5 in
  let* dep3a = int_range (-1) 1 in
  let* dep3b = int_range (-1) 1 in
  let* off3 = int_range (-2) 3 in
  let* span3 = int_range 0 5 in
  let* nguards = int_range 0 2 in
  let* coeffs =
    list_size (pure (3 * nguards)) (int_range (-1) 1)
  in
  let* ks = list_size (pure (max 1 nguards)) (int_range (-6) 6) in
  let lo2 = Poly.add (Poly.scale (Ratio.of_int dep2) (v "i")) (p_int off2) in
  let lo3 =
    Poly.sum
      [ Poly.scale (Ratio.of_int dep3a) (v "i");
        Poly.scale (Ratio.of_int dep3b) (v "j"); p_int off3 ]
  in
  let d =
    List.fold_left Domain.add_level Domain.empty
      [
        Domain.level "i" ~lo:(p_int lo1) ~hi:(p_int (lo1 + span1));
        Domain.level "j" ~lo:lo2 ~hi:(Poly.add lo2 (p_int span2));
        Domain.level "k" ~lo:lo3 ~hi:(Poly.add lo3 (p_int span3));
      ]
  in
  let rec add_guards d idx =
    if idx >= nguards then d
    else
      let c1 = List.nth coeffs (3 * idx)
      and c2 = List.nth coeffs ((3 * idx) + 1)
      and c3 = List.nth coeffs ((3 * idx) + 2) in
      let g =
        Poly.sum
          [ Poly.scale (Ratio.of_int c1) (v "i");
            Poly.scale (Ratio.of_int c2) (v "j");
            Poly.scale (Ratio.of_int c3) (v "k");
            p_int (List.nth ks idx) ]
      in
      add_guards (Domain.add_guard d (Domain.Ge g)) (idx + 1)
  in
  return (add_guards d 0)

let nest3_arb =
  QCheck.make
    ~print:(fun d -> Format.asprintf "%a" Domain.pp d)
    random_nest3_gen

(* Products of 2-3 independent groups, the shape factoring counts one
   group at a time.  Group g has its own parameter n<g> and one or two
   levels x<g>, y<g> whose bounds are affine in n<g> (and, for y<g>, in
   x<g>), each range non-empty as written for every n<g> >= 0 and every
   x<g> in its range; up to two guards per group couple its variables,
   also affine in n<g>.  The groups' levels are interleaved at random,
   keeping each group's order, as miniFE interleaves its cell and
   offset loops. *)
let random_product_gen =
  let open QCheck.Gen in
  let group g =
    let n = v (Printf.sprintf "n%d" g) in
    let vars = [ Printf.sprintf "x%d" g; Printf.sprintf "y%d" g ] in
    let affine ~outer k a =
      Poly.sum [ outer; p_int k; Poly.scale (Ratio.of_int a) n ]
    in
    (* [lo] is [outer] plus an affine term in n; [hi] adds a span
       that is never negative: a constant, a multiple of n and
       [widen], which is non-negative over the level's range. *)
    let level name ~outer ~widen =
      let* off = int_range (-2) 2 in
      let* a = int_range (-1) 1 in
      let* span = int_range 0 2 in
      let* b = int_range 0 1 in
      let lo = affine ~outer off a in
      return (Domain.level name ~lo ~hi:(affine ~outer:(Poly.add lo widen) span b))
    in
    let* depth = int_range 1 2 in
    let* outer = level (List.hd vars) ~outer:Poly.zero ~widen:Poly.zero in
    let* levels =
      if depth = 1 then return [ outer ]
      else
        let x = v (List.hd vars) in
        let* dep = int_range (-1) 1 in
        let* tri = int_range 0 1 in
        (* tri = 1 makes the inner range's length grow with x, so the
           two levels stay dependent even without a guard. *)
        let* inner =
          level (List.nth vars 1)
            ~outer:(Poly.scale (Ratio.of_int dep) x)
            ~widen:(Poly.scale (Ratio.of_int tri) (Poly.sub x outer.Domain.lo))
        in
        return [ outer; inner ]
    in
    let guard =
      let* cs = list_repeat depth (oneofl [ -1; 1 ]) in
      let* k = int_range (-3) 3 in
      let* a = int_range (-1) 1 in
      let xs =
        List.map2 (fun c x -> Poly.scale (Ratio.of_int c) (v x)) cs
          (List.filteri (fun i _ -> i < depth) vars)
      in
      return (Domain.Ge (affine ~outer:(Poly.sum xs) k a))
    in
    let* nguards = int_range 0 2 in
    let* guards = list_repeat nguards guard in
    return (levels, guards)
  in
  let* ngroups = int_range 2 3 in
  let* groups = flatten_l (List.init ngroups group) in
  let total = List.fold_left (fun k (ls, _) -> k + List.length ls) 0 groups in
  let* picks = list_repeat total (int_range 0 (ngroups - 1)) in
  (* Take each next level from the picked group, or from the first
     group with levels left once the picked one is exhausted. *)
  let pending = Array.of_list (List.map fst groups) in
  let take d pick =
    let g =
      if pending.(pick) <> [] then pick
      else
        let rec first i = if pending.(i) <> [] then i else first (i + 1) in
        first 0
    in
    let l = List.hd pending.(g) in
    pending.(g) <- List.tl pending.(g);
    Domain.add_level d l
  in
  let d = List.fold_left take Domain.empty picks in
  return (List.fold_left Domain.add_guard d (List.concat_map snd groups))

let product_arb =
  QCheck.make
    ~print:(fun d -> Format.asprintf "%a" Domain.pp d)
    random_product_gen

(* Every binding of [params] to 1..5. *)
let rec param_box = function
  | [] -> [ [] ]
  | p :: ps ->
      List.concat_map
        (fun rest -> List.init 5 (fun i -> (p, i + 1) :: rest))
        (param_box ps)

let count_props =
  [
    QCheck.Test.make ~name:"symbolic count = enumeration" ~count:500 nest_arb
      (fun d ->
        match Count.count d with
        | Count.Deferred _ -> QCheck.assume_fail ()
        | Count.Closed e ->
            Expr.eval_int (fun _ -> assert false) e
            = Enumerate.count ~params:[] d);
    QCheck.Test.make ~name:"deferred eval also matches enumeration" ~count:100
      nest_arb (fun d ->
        Count.eval ~params:[] (Count.count d) = Enumerate.count ~params:[] d);
    QCheck.Test.make ~name:"3-level nests with guards = enumeration"
      ~count:300 nest3_arb (fun d ->
        Count.eval ~params:[] (Count.count d) = Enumerate.count ~params:[] d);
    QCheck.Test.make ~name:"3-level closed forms are exact" ~count:300
      nest3_arb (fun d ->
        match Count.count d with
        | Count.Deferred _ -> QCheck.assume_fail ()
        | Count.Closed e ->
            Expr.eval_int (fun _ -> assert false) e
            = Enumerate.count ~params:[] d);
    QCheck.Test.make ~name:"factored parametric closed forms are exact"
      ~count:200 product_arb (fun d ->
        match Count.count d with
        | Count.Deferred _ -> QCheck.assume_fail ()
        | Count.Closed e ->
            List.for_all
              (fun params ->
                Expr.eval_int (fun x -> List.assoc x params) e
                = Enumerate.count ~params d)
              (param_box (Domain.parameters d)));
  ]

let plot_tests =
  let open Alcotest in
  [
    test_case "listing2 lattice plot shape" `Quick (fun () ->
        let s = Plot.render listing2 in
        (* 14 stars *)
        let stars = String.fold_left (fun n c -> if c = '*' then n + 1 else n) 0 s in
        check int "stars" 14 stars);
    test_case "listing5 plot shows holes" `Quick (fun () ->
        let s = Plot.render listing5 in
        let stars = String.fold_left (fun n c -> if c = '*' then n + 1 else n) 0 s in
        let dots = String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 s in
        check int "stars" 11 stars;
        check bool "has excluded points" true (dots > 0));
    test_case "render rejects non-2d domains" `Quick (fun () ->
        check_raises "1d"
          (Invalid_argument "Plot.render: exactly two loop levels required")
          (fun () -> ignore (Plot.render listing1)));
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "poly"
    [
      ("domain", domain_tests);
      ("enumerate", enumerate_tests);
      ("count", count_tests);
      ("count-props", q count_props);
      ("plot", plot_tests);
    ]
