open Mira_minipy

let run_expr body =
  let call = Minipy.run (Printf.sprintf "def f():\n    return %s\n" body) in
  call ("f", [])

let check_int msg expected v =
  match v with
  | Minipy.Int n -> Alcotest.check Alcotest.int msg expected n
  | _ -> Alcotest.failf "%s: expected int, got %s" msg (Format.asprintf "%a" Minipy.pp v)

let interp_tests =
  let open Alcotest in
  [
    test_case "arithmetic and precedence" `Quick (fun () ->
        check_int "1+2*3" 7 (run_expr "1 + 2 * 3");
        check_int "(1+2)*3" 9 (run_expr "(1 + 2) * 3");
        check_int "2**10" 1024 (run_expr "2 ** 10");
        check_int "-7//2 floors" (-4) (run_expr "(-7) // 2");
        check_int "7%3" 1 (run_expr "7 % 3"));
    test_case "conditional expression" `Quick (fun () ->
        check_int "true branch" 1 (run_expr "1 if 5 >= 3 else 2");
        check_int "false branch" 2 (run_expr "1 if 2 >= 3 else 2"));
    test_case "max/min" `Quick (fun () ->
        check_int "max" 9 (run_expr "max(3, 9, 4)");
        check_int "min" 3 (run_expr "min(3, 9, 4)"));
    test_case "dicts and get" `Quick (fun () ->
        let src =
          {|
def f():
    m = {}
    m["a"] = 3
    m["a"] = m.get("a", 0) + 4
    m["b"] = m.get("missing", 10)
    return m["a"] + m["b"]
|}
        in
        let call = Minipy.run src in
        check_int "7+10" 17 (call ("f", [])));
    test_case "functions and recursion" `Quick (fun () ->
        let src =
          {|
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
|}
        in
        let call = Minipy.run src in
        check_int "fib 10" 55 (call ("fib", [ Minipy.Int 10 ])));
    test_case "for over dict" `Quick (fun () ->
        let src =
          {|
def f():
    m = {}
    m["x"] = 2
    m["y"] = 3
    s = 0
    for k in m:
        s = s + m[k]
    return s
|}
        in
        check_int "sum values" 5 (Minipy.run src ("f", [])));
    test_case "while loop" `Quick (fun () ->
        let src =
          {|
def f(n):
    s = 0
    i = 0
    while i < n:
        s = s + i
        i = i + 1
    return s
|}
        in
        check_int "gauss" 4950 (Minipy.run src ("f", [ Minipy.Int 100 ])));
    test_case "handle_function_call idiom" `Quick (fun () ->
        let src =
          {|
def handle_function_call(caller, callee, iters):
    for k in callee:
        caller[k] = caller.get(k, 0) + callee[k] * iters
    return caller

def inner():
    m = {}
    m["addsd"] = 5
    return m

def outer(n):
    m = {}
    m["movq"] = 1
    handle_function_call(m, inner(), n)
    return m
|}
        in
        let call = Minipy.run src in
        let counts = Minipy.dict_counts (call ("outer", [ Minipy.Int 7 ])) in
        check (float 1e-9) "addsd scaled" 35.0 (List.assoc "addsd" counts);
        check (float 1e-9) "movq" 1.0 (List.assoc "movq" counts));
    test_case "errors are reported" `Quick (fun () ->
        (match run_expr "1 // 0" with
        | exception Minipy.Error _ -> ()
        | _ -> fail "expected error");
        match Minipy.run "def f():\n    return undefined_name\n" ("f", []) with
        | exception Minipy.Error _ -> ()
        | _ -> fail "expected error");
  ]

(* The real point: the emitted Python model, executed by minipy, must
   agree with the internal evaluator.  [call] runs the emitted module. *)
let crosscheck_model name (m : Mira_core.Mira.t) call fname env =
  let internal = Mira_core.Mira.counts m ~fname ~env in
  let fm = Mira_core.Model_ir.find_exn m.model fname in
  let args =
    List.map
      (fun p ->
        match List.assoc_opt p env with
        | Some v -> Minipy.Int v
        | None -> Alcotest.failf "missing env for %s" p)
      fm.mf_params
  in
  let result =
    try call (Mira_core.Model_ir.python_name fm, args)
    with Minipy.Error msg -> Alcotest.failf "%s/%s: %s" name fname msg
  in
  let py_counts = Minipy.dict_counts result in
  (* same mnemonics, same counts *)
  let all =
    List.sort_uniq compare (List.map fst internal @ List.map fst py_counts)
  in
  List.iter
    (fun mn ->
      let a = Mira_core.Model_eval.count internal mn in
      let b = Option.value ~default:0.0 (List.assoc_opt mn py_counts) in
      Alcotest.check (Alcotest.float 1e-6)
        (Printf.sprintf "%s/%s: %s" name fname mn)
        a b)
    all

let crosscheck name src fname env =
  let m = Mira_core.Mira.analyze ~source_name:(name ^ ".mc") src in
  crosscheck_model name m (Minipy.run (Mira_core.Mira.python_model m)) fname
    env

let fuzz_seed =
  match Sys.getenv_opt "MIRA_FUZZ_SEED" with
  | Some s -> int_of_string s
  | None -> 20260806

(* The emitted Python renders a deferred (enumerated) count as (0), so
   only models without one can agree with the evaluator. *)
let has_deferred (m : Mira_core.Mira.t) =
  List.exists
    (fun (fm : Mira_core.Model_ir.fmodel) ->
      List.exists
        (function
          | Mira_core.Model_ir.Update { mult; _ }
          | Mira_core.Model_ir.Call_site { mult; _ } ->
              List.exists
                (function
                  | _, Mira_poly.Count.Deferred _ -> true
                  | _, Mira_poly.Count.Closed _ -> false)
                mult.terms)
        fm.mf_entries)
    m.model.functions

(* Every function of [src], each parameter bound by [value]; returns
   false when the file was skipped for a deferred count. *)
let crosscheck_file name src value =
  let m = Mira_core.Mira.analyze ~source_name:name src in
  if has_deferred m then false
  else begin
    let call = Minipy.run (Mira_core.Mira.python_model m) in
    List.iter
      (fun (fm : Mira_core.Model_ir.fmodel) ->
        crosscheck_model name m call fm.mf_name
          (List.mapi (fun j p -> (p, value j)) fm.mf_params))
      m.model.functions;
    true
  end

let crosscheck_tests =
  let open Alcotest in
  [
    test_case "emitted Python = internal eval (daxpy)" `Quick (fun () ->
        crosscheck "daxpy"
          {|void daxpy(double *x, double *y, double a, int n) {
              for (int i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
            }|}
          "daxpy"
          [ ("n", 1234) ]);
    test_case "emitted Python = internal eval (stream driver)" `Quick
      (fun () ->
        crosscheck "stream" Mira_corpus.Corpus.stream "stream_driver"
          [ ("n", 5000); ("ntimes", 7) ]);
    test_case "emitted Python = internal eval (dgemm)" `Quick (fun () ->
        crosscheck "dgemm" Mira_corpus.Corpus.dgemm "dgemm" [ ("n", 37) ]);
    test_case "emitted Python = internal eval (triangular + branch)" `Quick
      (fun () ->
        crosscheck "tri"
          {|int f(int n) {
              int c = 0;
              for (int i = 0; i < n; i++)
                for (int j = i; j < n; j++)
                  if (j > i + 2)
                    c++;
              return c;
            }|}
          "f"
          [ ("n", 19) ]);
    test_case "emitted Python = internal eval (class example, annotated)"
      `Quick (fun () ->
        crosscheck "fig5"
          {|class A {
              int tag;
              double foo(double *a, double *b) {
                double s = 0.0;
                for (int i = 0; i < 16; i++) {
                  #pragma @Annotation {lp_cond:y}
                  for (int j = 0; j <= 0; j++) {
                    s = s + a[i] * b[j];
                  }
                }
                return s;
              }
            };
            int main() { A inst; double a[4]; double b[4]; double r = inst.foo(a, b); if (r < 0.0) { return 1; } return 0; }|}
          "A::foo"
          [ ("y", 11) ]);
    test_case "emitted Python = internal eval (every corpus function)"
      `Quick (fun () ->
        let checked =
          List.filter
            (fun (name, src) -> crosscheck_file name src (fun j -> 5 + (2 * j)))
            Mira_corpus.Corpus.all
        in
        check bool "most corpus files have no deferred count" true
          (2 * List.length checked > List.length Mira_corpus.Corpus.all));
    test_case "emitted Python = internal eval (random kernels)" `Quick
      (fun () ->
        let rng = Random.State.make [| fuzz_seed; 31 |] in
        for i = 1 to 30 do
          let src = Kernelgen.render (Kernelgen.gen_kernel rng) in
          ignore
            (crosscheck_file (Printf.sprintf "kernel%d.mc" i) src (fun _ ->
                 2 + Random.State.int rng 11))
        done);
  ]

(* Property: Expr.to_python rendered into a Python function and run by
   minipy computes exactly what Expr.eval_int computes, for random
   integer-coefficient symbolic expressions. *)
let expr_gen rng depth =
  let open Mira_symexpr in
  let rec poly d =
    if d = 0 then
      match Random.State.int rng 3 with
      | 0 -> Poly.of_int (Random.State.int rng 21 - 10)
      | 1 -> Poly.var "a"
      | _ -> Poly.var "b"
    else
      match Random.State.int rng 3 with
      | 0 -> Poly.add (poly (d - 1)) (poly (d - 1))
      | 1 -> Poly.sub (poly (d - 1)) (poly (d - 1))
      | _ -> Poly.mul (poly (d - 1)) (poly 0)
  in
  let rec expr d =
    if d = 0 then Expr.poly (poly 1)
    else
      match Random.State.int rng 6 with
      | 0 -> Expr.add (expr (d - 1)) (expr (d - 1))
      | 1 -> Expr.mul (expr (d - 1)) (Expr.poly (poly 0))
      | 2 -> Expr.max_ (expr (d - 1)) (expr (d - 1))
      | 3 -> Expr.min_ (expr (d - 1)) (expr (d - 1))
      | 4 -> Expr.fdiv (expr (d - 1)) (1 + Random.State.int rng 5)
      | _ -> Expr.if_ (poly 1) (expr (d - 1)) (expr (d - 1))
  in
  expr depth

let python_semantics_tests =
  let open Alcotest in
  [
    test_case "200 random exprs: to_python via minipy = eval_int" `Quick
      (fun () ->
        let rng = Random.State.make [| 4242 |] in
        for i = 1 to 200 do
          let e = expr_gen rng 3 in
          let a = Random.State.int rng 15 - 5 in
          let b = Random.State.int rng 15 - 5 in
          let expected =
            Mira_symexpr.Expr.eval_int
              (function "a" -> a | "b" -> b | _ -> assert false)
              e
          in
          let py =
            Printf.sprintf "def f(a, b):\n    return %s\n"
              (Mira_symexpr.Expr.to_python e)
          in
          match Minipy.run py ("f", [ Minipy.Int a; Minipy.Int b ]) with
          | Minipy.Int got ->
              if got <> expected then
                failf "case %d (a=%d, b=%d): ocaml %d vs python %d\n%s" i a b
                  expected got py
          | v ->
              failf "case %d: python returned %s" i
                (Format.asprintf "%a" Minipy.pp v)
          | exception Minipy.Error msg -> failf "case %d: %s\n%s" i msg py
        done);
  ]

let () =
  Alcotest.run "minipy"
    [
      ("interp", interp_tests);
      ("crosscheck", crosscheck_tests);
      ("python-semantics", python_semantics_tests);
    ]
