(* Unit tests for the core's supporting pieces: the bridge, model IR,
   reporting, architecture descriptions, baselines and the vectorizer. *)

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ---------- bridge ---------- *)

let bridge_tests =
  let open Alcotest in
  let open Mira_srclang in
  [
    test_case "claims are exclusive and exhaustive" `Quick (fun () ->
        let items =
          [|
            (Loc.pos 1 1, "movq"); (Loc.pos 1 5, "addq"); (Loc.pos 2 1, "movsd");
            (Loc.pos 2 9, "movsd"); (Loc.pos 3 1, "ret");
          |]
        in
        let b = Mira_core.Bridge.of_items [ ("f", items) ] in
        let fb = Mira_core.Bridge.fn_exn b "f" in
        check int "size" 5 (Mira_core.Bridge.size fb);
        let line1 =
          Mira_core.Bridge.claim_span fb
            (Loc.span (Loc.pos 1 1) (Loc.pos 1 80))
        in
        check (list (pair string int)) "line 1"
          [ ("addq", 1); ("movq", 1) ]
          (List.sort compare line1);
        (* overlapping second claim must not double count *)
        let again =
          Mira_core.Bridge.claim_span fb
            (Loc.span (Loc.pos 1 1) (Loc.pos 2 80))
        in
        check (list (pair string int)) "only line 2 remains"
          [ ("movsd", 2) ]
          (List.sort compare again);
        check int "one unclaimed" 1 (Mira_core.Bridge.unclaimed fb);
        let rest = Mira_core.Bridge.claim_rest fb in
        check (list (pair string int)) "rest" [ ("ret", 1) ] rest;
        check int "none unclaimed" 0 (Mira_core.Bridge.unclaimed fb);
        Mira_core.Bridge.reset fb;
        check int "reset restores" 5
          (Mira_core.Bridge.size fb - Mira_core.Bridge.unclaimed fb + 5 - 5
          |> fun _ -> Mira_core.Bridge.unclaimed fb));
    test_case "every instruction of an analyzed function is attributed"
      `Quick (fun () ->
        (* bridging invariant: after model generation nothing remains
           unclaimed (verified indirectly: predicted totals at mult=1
           match function size for straight-line code) *)
        let src = "int f(int a) { int b = a + 1; int c = b * 3; return c - a; }" in
        let m = Mira_core.Mira.analyze ~source_name:"s.mc" src in
        let counts = Mira_core.Mira.counts m ~fname:"f" ~env:[] in
        let total = Mira_core.Model_eval.total counts in
        let fd =
          Mira_visa.Program.find_exn
            (Mira_visa.Objfile.decode m.input.object_bytes) "f"
        in
        check (float 0.0) "all instructions modeled"
          (float_of_int (Array.length fd.insns))
          total);
  ]

(* ---------- arch descriptions ---------- *)

let arch_tests =
  let open Alcotest in
  let open Mira_arch in
  [
    test_case "presets are valid and complete" `Quick (fun () ->
        List.iter
          (fun a ->
            match Archdesc.validate a with
            | Ok () -> ()
            | Error es -> failf "%s: %s" a.Archdesc.name (String.concat "; " es))
          [ Archdesc.arya; Archdesc.frankenstein ]);
    test_case "64 categories, as the paper describes" `Quick (fun () ->
        check bool "at least 64" true (Archdesc.n_categories Archdesc.arya >= 64));
    test_case "text round-trip" `Quick (fun () ->
        let a = Archdesc.arya in
        let b = Archdesc.parse (Archdesc.to_text a) in
        check string "name" a.name b.name;
        check int "cores" a.cores b.cores;
        check int "vector" a.vector_bits b.vector_bits;
        check bool "counters" true
          (a.unavailable_counters = b.unavailable_counters);
        check bool "categories" true (a.categories = b.categories);
        check bool "groups" true (a.groups = b.groups));
    test_case "parse errors carry line numbers" `Quick (fun () ->
        (match Archdesc.parse "arch x\nwat 3\n" with
        | exception Archdesc.Parse_error (_, 2) -> ()
        | exception Archdesc.Parse_error (_, l) -> failf "wrong line %d" l
        | _ -> fail "expected parse error");
        match Archdesc.parse "cores many\n" with
        | exception Archdesc.Parse_error (_, 1) -> ()
        | _ -> fail "expected parse error");
    test_case "counter availability (the Haswell FP_INS story)" `Quick
      (fun () ->
        check bool "arya lacks FP_INS" false
          (Archdesc.counter_available Archdesc.arya "FP_INS");
        check bool "frankenstein has FP_INS" true
          (Archdesc.counter_available Archdesc.frankenstein "FP_INS"));
    test_case "aggregation into the 7 display groups" `Quick (fun () ->
        let counts = [ ("addq", 10); ("movsd", 5); ("mulsd", 3); ("jmp", 2) ] in
        let groups = Archdesc.aggregate Archdesc.arya counts in
        check int "all 7 groups present" 7 (List.length groups);
        check int "int arith" 10
          (List.assoc "Integer arithmetic instruction" groups);
        check int "sse2 move" 5
          (List.assoc "SSE2 data movement instruction" groups);
        check int "sse2 arith" 3
          (List.assoc "SSE2 packed arithmetic instruction" groups));
    test_case "every ISA mnemonic categorized" `Quick (fun () ->
        List.iter
          (fun m ->
            check bool (m ^ " categorized") true
              (Archdesc.group_of_mnemonic Archdesc.arya m <> None))
          Mira_visa.Isa.all_mnemonics);
    test_case "vector lanes" `Quick (fun () ->
        check int "arya 256-bit = 4 doubles" 4
          (Archdesc.vector_lanes Archdesc.arya);
        check int "frankenstein 128-bit = 2" 2
          (Archdesc.vector_lanes Archdesc.frankenstein));
  ]

(* ---------- reporting ---------- *)

let report_tests =
  let open Alcotest in
  [
    test_case "scientific formatting" `Quick (fun () ->
        check string "1.93E8" "1.93E8" (Mira_core.Report.scientific 1.93e8);
        check string "8.239E7" "8.239E7" (Mira_core.Report.scientific 8.239e7);
        check string "zero" "0" (Mira_core.Report.scientific 0.0));
    test_case "arithmetic intensity" `Quick (fun () ->
        let counts = [ ("addsd", 193.0); ("movsd", 367.0) ] in
        check (float 1e-6) "0.526" (193.0 /. 367.0)
          (Mira_core.Report.arithmetic_intensity Mira_arch.Archdesc.arya counts));
    test_case "table2 skips empty groups, distribution sums to 100%" `Quick
      (fun () ->
        let counts = [ ("addsd", 60.0); ("movsd", 40.0) ] in
        let t = Mira_core.Report.table2 Mira_arch.Archdesc.arya counts in
        check bool "no integer row" false (contains t "Integer arithmetic");
        let d = Mira_core.Report.distribution Mira_arch.Archdesc.arya counts in
        check bool "60%" true (contains d "60.0%");
        check bool "40%" true (contains d "40.0%"));
    test_case "roofline saturates at peak" `Quick (fun () ->
        (* enormous AI: compute bound *)
        let counts = [ ("addsd", 1e9); ("movsd", 1.0) ] in
        check (float 1e-6) "peak" Mira_arch.Archdesc.arya.peak_gflops
          (Mira_core.Report.roofline_gflops Mira_arch.Archdesc.arya counts));
  ]

(* ---------- PBound baseline ---------- *)

let pbound_tests =
  let open Alcotest in
  [
    test_case "triad source ops: 2n flops, 3n memory refs" `Quick (fun () ->
        let model =
          Mira_baselines.Pbound.analyze ~source_name:"t.mc"
            {|void triad(double *a, double *b, double *c, double s, int n) {
                for (int i = 0; i < n; i++) { a[i] = b[i] + s * c[i]; }
              }|}
        in
        let counts =
          Mira_core.Model_eval.eval model ~fname:"triad" ~env:[ ("n", 100) ]
        in
        check (float 0.0) "flops" 200.0 (Mira_baselines.Pbound.flops counts);
        check (float 0.0) "mem" 300.0 (Mira_baselines.Pbound.mem_refs counts));
    test_case "PBound misses compiler effects that Mira sees" `Quick
      (fun () ->
        (* folded constant: source has a multiply, -O1 binary does not *)
        let src =
          {|double f(double *a, int n) {
              double s = 0.0;
              for (int i = 0; i < n; i++) { s += a[i] * (2.0 * 3.0); }
              return s;
            }|}
        in
        let pb = Mira_baselines.Pbound.analyze ~source_name:"f.mc" src in
        let pbc = Mira_core.Model_eval.eval pb ~fname:"f" ~env:[ ("n", 50) ] in
        let m = Mira_core.Mira.analyze ~source_name:"f.mc" src in
        let mc = Mira_core.Mira.counts m ~fname:"f" ~env:[ ("n", 50) ] in
        (* source: 2 multiplies per iteration (a[i]*(...) and 2.0*3.0);
           binary after folding: 1 *)
        check (float 0.0) "pbound fmul" 100.0
          (Mira_core.Model_eval.count pbc "fmul");
        check (float 0.0) "mira mulsd" 50.0
          (Mira_core.Model_eval.count mc "mulsd"));
    test_case "per-function source models compose through calls" `Quick
      (fun () ->
        let model =
          Mira_baselines.Pbound.analyze ~source_name:"c.mc"
            {|double dot(double *x, double *y, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) { s += x[i] * y[i]; }
                return s;
              }
              double twice(double *x, double *y, int n) {
                return dot(x, y, n) + dot(x, y, n);
              }|}
        in
        let counts =
          Mira_core.Model_eval.eval model ~fname:"twice" ~env:[ ("n", 10) ]
        in
        (* 2 calls x (10 fmul + 10 fadd) + 1 fadd at the call site *)
        check (float 0.0) "fmul" 20.0 (Mira_core.Model_eval.count counts "fmul");
        check (float 0.0) "fadd" 21.0 (Mira_core.Model_eval.count counts "fadd"));
  ]

(* ---------- Tau baseline ---------- *)

let tau_tests =
  let open Alcotest in
  [
    test_case "measurement and counter availability" `Quick (fun () ->
        let vm = Mira_corpus.Corpus.run_stream ~n:1000 ~ntimes:2 in
        (match
           Mira_baselines.Tau.measure ~arch:Mira_arch.Archdesc.frankenstein vm
             "FP_INS" "stream_driver"
         with
        | Ok m ->
            check int "one call" 1 m.calls;
            check (float 0.0) "4*n*ntimes" 8000.0 m.value
        | Error e ->
            failf "unexpected error: %s"
              (Format.asprintf "%a" Mira_baselines.Tau.pp_error e));
        (match
           Mira_baselines.Tau.measure ~arch:Mira_arch.Archdesc.arya vm "FP_INS"
             "stream_driver"
         with
        | Error (Mira_baselines.Tau.Counter_unavailable _) -> ()
        | _ -> fail "expected Counter_unavailable on arya");
        (match
           Mira_baselines.Tau.measure ~arch:Mira_arch.Archdesc.arya vm
             "TOT_INS" "stream_driver"
         with
        | Ok m -> check bool "total positive" true (m.value > 0.0)
        | Error _ -> fail "TOT_INS should be available");
        match
          Mira_baselines.Tau.measure ~arch:Mira_arch.Archdesc.arya vm "WAT"
            "stream_driver"
        with
        | Error (Mira_baselines.Tau.Unknown_counter _) -> ()
        | _ -> fail "expected Unknown_counter");
  ]

(* ---------- vectorizer ---------- *)

let vectorize_tests =
  let open Alcotest in
  let triad_src =
    {|void triad(double *a, double *b, double *c, double s, int n) {
        for (int i = 0; i < n; i++) {
          a[i] = b[i] + s * c[i];
        }
      }|}
  in
  [
    test_case "O2 halves dynamic FP instructions and stays correct" `Quick
      (fun () ->
        let n = 1000 in
        let run level =
          let prog = Mira_codegen.Codegen.compile ~level triad_src in
          let vm = Mira_vm.Vm.create prog in
          let a = Mira_vm.Vm.zeros_f vm (n + 2) in
          let b = Mira_vm.Vm.alloc_floats vm (Array.make (n + 2) 1.0) in
          let c = Mira_vm.Vm.alloc_floats vm (Array.make (n + 2) 2.0) in
          ignore
            (Mira_vm.Vm.call vm "triad"
               [ Int a; Int b; Int c; Double 3.0; Int n ]);
          let out = Mira_vm.Vm.read_floats vm a n in
          let p = Option.get (Mira_vm.Vm.profile_of vm "triad") in
          let fp =
            List.fold_left
              (fun acc mn -> acc + Mira_vm.Vm.count_of p mn)
              0 Mira_core.Model_eval.fp_mnemonics
          in
          (out, fp)
        in
        let out1, fp1 = run Mira_codegen.Codegen.O1 in
        let out2, fp2 = run Mira_codegen.Codegen.O2 in
        check bool "results identical" true (out1 = out2);
        check int "scalar count" (2 * n) fp1;
        check int "packed halves the count" n fp2);
    test_case "odd trip counts handled by the scalar epilogue" `Quick
      (fun () ->
        let run level n =
          let prog = Mira_codegen.Codegen.compile ~level triad_src in
          let vm = Mira_vm.Vm.create prog in
          let a = Mira_vm.Vm.zeros_f vm (n + 2) in
          let b =
            Mira_vm.Vm.alloc_floats vm (Array.init (n + 2) float_of_int)
          in
          let c = Mira_vm.Vm.alloc_floats vm (Array.make (n + 2) 2.0) in
          ignore
            (Mira_vm.Vm.call vm "triad"
               [ Int a; Int b; Int c; Double 3.0; Int n ]);
          Mira_vm.Vm.read_floats vm a n
        in
        List.iter
          (fun n ->
            check bool
              (Printf.sprintf "n=%d identical" n)
              true
              (run Mira_codegen.Codegen.O1 n = run Mira_codegen.Codegen.O2 n))
          [ 0; 1; 2; 7; 999 ]);
    test_case "random kernels behave identically at O1 and O2" `Quick
      (fun () ->
        (* reuse simple eligible/ineligible mixed kernels *)
        let rng = Random.State.make [| 31337 |] in
        for _ = 1 to 25 do
          let n = 3 + Random.State.int rng 12 in
          let span = Random.State.int rng 4 in
          let src =
            Printf.sprintf
              {|void kern(double *a, double *b, int n) {
                  double s = 1.5;
                  for (int i = 0; i < n; i++) {
                    a[i] = b[i] + s * a[i];
                  }
                  for (int i = 0; i <= %d; i++) {
                    b[i] = a[i] * 0.5;
                  }
                  for (int i = 0; i < n; i++) {
                    s = s + a[i];
                  }
                  a[0] = s;
                }|}
              span
          in
          let run level =
            let prog = Mira_codegen.Codegen.compile ~level src in
            let vm = Mira_vm.Vm.create prog in
            let size = n + 8 in
            let a = Mira_vm.Vm.alloc_floats vm (Array.init size float_of_int) in
            let b = Mira_vm.Vm.alloc_floats vm (Array.make size 2.0) in
            ignore (Mira_vm.Vm.call vm "kern" [ Int a; Int b; Int n ]);
            (Mira_vm.Vm.read_floats vm a size, Mira_vm.Vm.read_floats vm b size)
          in
          if run Mira_codegen.Codegen.O1 <> run Mira_codegen.Codegen.O2 then
            failf "n=%d: O1 and O2 diverge\n%s" n src
        done);
    test_case "packed-aware FPI correction is exact at O2" `Quick (fun () ->
        let n = 2048 in
        let m =
          Mira_core.Mira.analyze ~level:Mira_codegen.Codegen.O2
            ~source_name:"t.mc" triad_src
        in
        let prog = Mira_visa.Objfile.decode m.input.object_bytes in
        let vectorized = Mira_codegen.Vectorize.vectorized_lines prog in
        let corrected =
          Mira_core.Model_eval.fpi_vectorization_aware m.model ~lanes:2
            ~vectorized ~fname:"triad" ~env:[ ("n", n) ]
        in
        let vm = Mira_vm.Vm.load_object m.input.object_bytes in
        let a = Mira_vm.Vm.zeros_f vm (n + 2) in
        let b = Mira_vm.Vm.alloc_floats vm (Array.make (n + 2) 1.0) in
        let c = Mira_vm.Vm.alloc_floats vm (Array.make (n + 2) 2.0) in
        ignore
          (Mira_vm.Vm.call vm "triad" [ Int a; Int b; Int c; Double 3.0; Int n ]);
        let p = Option.get (Mira_vm.Vm.profile_of vm "triad") in
        let dyn =
          List.fold_left
            (fun acc mn -> acc +. float_of_int (Mira_vm.Vm.count_of p mn))
            0.0 Mira_core.Model_eval.fp_mnemonics
        in
        check (float 0.0) "corrected = dynamic" dyn corrected);
    test_case "vectorized_lines reports the loop body" `Quick (fun () ->
        let prog =
          Mira_codegen.Codegen.compile ~level:Mira_codegen.Codegen.O2 triad_src
        in
        match Mira_codegen.Vectorize.vectorized_lines prog with
        | [ ("triad", lines) ] -> check bool "line 3 packed" true (List.mem 3 lines)
        | _ -> fail "expected triad to be vectorized");
    test_case "ineligible loops untouched" `Quick (fun () ->
        (* indirect addressing blocks vectorization *)
        let src =
          {|void gather(double *a, double *b, int *idx, int n) {
              for (int i = 0; i < n; i++) {
                a[i] = b[idx[i]];
              }
            }|}
        in
        let prog =
          Mira_codegen.Codegen.compile ~level:Mira_codegen.Codegen.O2 src
        in
        check (list (pair string (list int))) "nothing vectorized" []
          (Mira_codegen.Vectorize.vectorized_lines prog));
  ]

(* ---------- model IR details ---------- *)

let model_tests =
  let open Alcotest in
  [
    test_case "python names follow the Figure 5 convention" `Quick (fun () ->
        let src =
          {|class A {
              int x;
              double foo(double *a, double *b) { return a[0] + b[0]; }
            };
            int main() { A inst; double p[1]; double q[1]; double r = inst.foo(p, q); if (r < 0.0) { return 1; } return 0; }|}
        in
        let m = Mira_core.Mira.analyze ~source_name:"n.mc" src in
        check string "A_foo_2" "A_foo_2"
          (Mira_core.Model_ir.python_name
             (Mira_core.Model_ir.find_exn m.model "A::foo"));
        check string "main_0" "main_0"
          (Mira_core.Model_ir.python_name
             (Mira_core.Model_ir.find_exn m.model "main")));
    test_case "golden Figure 5 emission" `Quick (fun () ->
        let src =
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
        in
        let m = Mira_core.Mira.analyze ~source_name:"fig5.mc" src in
        let expected =
          {|def A_foo_2(y):
    m = {}
    # line 4 (stmt)
    bump(m, "movsd", (1))
    bump(m, "xorpd", (1))
    # line 5 (loop-init)
    bump(m, "movq", (1))
    # line 5 (loop-cond)
    bump(m, "cmpq", (16) + (1))
    bump(m, "jge", (16) + (1))
    # line 5 (loop-step)
    bump(m, "incq", (16))
    bump(m, "jmp", (16))
    # line 7 (loop-init)
    bump(m, "movq", (16))
    # line 7 (loop-cond)
    bump(m, "cmpq", (16*y + 16) + (16))
    bump(m, "jg", (16*y + 16) + (16))
    # line 7 (loop-step)
    bump(m, "incq", (16*y + 16))
    bump(m, "jmp", (16*y + 16))
    # line 8 (stmt)
    bump(m, "addsd", (16*y + 16))
    bump(m, "movsd", 5 * ((16*y + 16)))
    bump(m, "mulsd", (16*y + 16))
    # line 11 (stmt)
    bump(m, "movsd", (1))
    bump(m, "ret", (1))
    # line 3 (overhead)
    bump(m, "movq", 2 * ((1)))
    return m
|}
        in
        check string "emitted text"
          expected
          (Mira_core.Python_emit.emit_function m.model "A::foo"));
    test_case "unknown call arguments become line-tagged parameters" `Quick
      (fun () ->
        (* the paper's y_16 pattern: a call argument whose value is
           unknown statically becomes parameter <name>_<line> *)
        let src =
          {|double work(double *a, int k) {
              double s = 0.0;
              for (int i = 0; i < k; i++) { s += a[i]; }
              return s;
            }
            double driver(double *a, int *sizes) {
              return work(a, sizes[0]);
            }|}
        in
        let m = Mira_core.Mira.analyze ~source_name:"u.mc" src in
        let params = Mira_core.Mira.parameters m ~fname:"driver" in
        check bool "k_7 parameter" true (List.mem "k_7" params);
        let c =
          Mira_core.Mira.counts m ~fname:"driver" ~env:[ ("k_7", 42) ]
        in
        check (float 0.0) "addsd follows the parameter" 42.0
          (Mira_core.Model_eval.count c "addsd"));
    test_case "a binding the callee never reads adds no parameter" `Quick
      (fun () ->
        (* ihelper's model reads only m, so the loop variable bound to
           k must not become a parameter of kern *)
        let src =
          {|int ihelper(int *q, int k, int m) {
              int acc = 0;
              for (int w = 0; w < m; w++) { acc += q[k + w]; }
              return acc;
            }
            void kern(int *p, int n) {
              int t = 0;
              for (int i0 = 0; i0 < n; i0++) { t += ihelper(p, i0, 4); }
              p[0] = t;
            }|}
        in
        let m = Mira_core.Mira.analyze ~source_name:"lv.mc" src in
        check (list string) "kern's parameters" [ "n" ]
          (Mira_core.Mira.parameters m ~fname:"kern");
        check (list string) "ihelper's parameters" [ "m" ]
          (Mira_core.Mira.parameters m ~fname:"ihelper"));
    test_case "missing parameters raise a helpful error" `Quick (fun () ->
        let m =
          Mira_core.Mira.analyze ~source_name:"p.mc"
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
        in
        match Mira_core.Mira.counts m ~fname:"f" ~env:[] with
        | exception Mira_core.Model_eval.Missing_parameter ("f", "n") -> ()
        | _ -> fail "expected Missing_parameter");
    test_case "fraction annotation scales branch counts" `Quick (fun () ->
        let src =
          {|extern double frand();
            double f(double *a, int n) {
              double s = 0.0;
              for (int i = 0; i < n; i++) {
                #pragma @Annotation {fraction:0.25}
                if (a[i] > 0.5) {
                  s += a[i];
                }
              }
              return s;
            }|}
        in
        let m = Mira_core.Mira.analyze ~source_name:"fr.mc" src in
        let c = Mira_core.Mira.counts m ~fname:"f" ~env:[ ("n", 1000) ] in
        (* s += a[i] contributes addsd on a quarter of iterations *)
        check (float 0.0) "250 scaled adds" 250.0
          (Mira_core.Model_eval.count c "addsd"));
  ]

let predict_tests =
  let open Alcotest in
  [
    test_case "cost directives parse and apply" `Quick (fun () ->
        let desc =
          {|arch toy
cores 1
clock_ghz 1.0
peak_gflops 10
mem_gbps 10
cost sse2_arith_scalar 4
cost int_mov 2
|}
        in
        let a = Mira_arch.Archdesc.parse desc in
        check (float 1e-9) "addsd costs 4" 4.0
          (Mira_arch.Archdesc.cost_of_mnemonic a "addsd");
        check (float 1e-9) "movq costs 2" 2.0
          (Mira_arch.Archdesc.cost_of_mnemonic a "movq");
        check (float 1e-9) "unlisted costs 1" 1.0
          (Mira_arch.Archdesc.cost_of_mnemonic a "jmp");
        (* cycles = 10 addsd * 4 + 5 movq * 2 = 50; 1 GHz -> 50 ns *)
        let p =
          Mira_core.Predict.of_counts a [ ("addsd", 10.0); ("movq", 5.0) ]
        in
        check (float 1e-9) "cycles" 50.0 p.cycles;
        check (float 1e-15) "seconds" 5e-8 p.seconds);
    test_case "validate rejects bad costs" `Quick (fun () ->
        let a =
          { Mira_arch.Archdesc.arya with costs = [ ("no_such_cat", 1.0) ] }
        in
        match Mira_arch.Archdesc.validate a with
        | Error es ->
            check bool "mentions unknown category" true
              (List.exists (fun e -> contains e "no_such_cat") es)
        | Ok () -> fail "expected validation error");
    test_case "memory- vs compute-bound verdicts" `Quick (fun () ->
        let a = Mira_arch.Archdesc.frankenstein in
        let streamy = [ ("movsd", 1000.0); ("addsd", 10.0) ] in
        let gemmy = [ ("movsd", 10.0); ("mulsd", 10000.0) ] in
        let ps = Mira_core.Predict.of_counts a streamy in
        let pg = Mira_core.Predict.of_counts a gemmy in
        check bool "stream-like memory-bound" true (ps.bound = `Memory);
        check bool "gemm-like compute-bound" true (pg.bound = `Compute));
    test_case "architecture ranking on the STREAM model" `Quick (fun () ->
        let m =
          Mira_core.Mira.analyze ~source_name:"stream.mc"
            Mira_corpus.Corpus.stream
        in
        let counts =
          Mira_core.Mira.counts m ~fname:"stream_triad" ~env:[ ("n", 100000) ]
        in
        let ranked =
          Mira_core.Predict.compare_architectures
            [ Mira_arch.Archdesc.arya; Mira_arch.Archdesc.frankenstein ]
            counts
        in
        check int "two rows" 2 (List.length ranked);
        let (_, first) = List.hd ranked and (_, second) = List.nth ranked 1 in
        check bool "sorted by time" true (first.seconds <= second.seconds));
  ]

let exclusive_tests =
  let open Alcotest in
  [
    test_case "exclusive static = exclusive dynamic through calls" `Quick
      (fun () ->
        let src =
          {|double inner(double *x, int n) {
              double s = 0.0;
              for (int i = 0; i < n; i++) { s += x[i] * x[i]; }
              return s;
            }
            double outer(double *x, int n) {
              double acc = 0.0;
              for (int k = 0; k < 5; k++) {
                acc += inner(x, n);
              }
              return acc;
            }|}
        in
        let m = Mira_core.Mira.analyze ~source_name:"e.mc" src in
        let n = 50 in
        let static_excl =
          Mira_core.Model_eval.eval_exclusive m.model ~fname:"outer"
            ~env:[ ("n", n) ]
        in
        let vm = Mira_vm.Vm.load_object m.input.object_bytes in
        let x = Mira_vm.Vm.alloc_floats vm (Array.make n 1.5) in
        ignore (Mira_vm.Vm.call vm "outer" [ Int x; Int n ]);
        let p = Option.get (Mira_vm.Vm.profile_of vm "outer") in
        (* every mnemonic's self count matches *)
        let mns =
          List.sort_uniq compare
            (List.map fst static_excl @ List.map fst p.exclusive)
        in
        List.iter
          (fun mn ->
            check (float 0.0) ("self " ^ mn)
              (float_of_int (Mira_vm.Vm.self_count_of p mn))
              (Mira_core.Model_eval.count static_excl mn))
          mns;
        (* outer's own FP work is just the 5 accumulating adds *)
        check (float 0.0) "outer self addsd" 5.0
          (Mira_core.Model_eval.count static_excl "addsd");
        (* inclusive strictly dominates exclusive *)
        let static_incl =
          Mira_core.Mira.counts m ~fname:"outer" ~env:[ ("n", n) ]
        in
        check bool "inclusive >= exclusive" true
          (Mira_core.Model_eval.total static_incl
          >= Mira_core.Model_eval.total static_excl));
    test_case "leaf functions: inclusive = exclusive" `Quick (fun () ->
        let m =
          Mira_core.Mira.analyze ~source_name:"l.mc"
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
        in
        let env = [ ("n", 33) ] in
        check bool "equal" true
          (Mira_core.Mira.counts m ~fname:"f" ~env
          = Mira_core.Model_eval.eval_exclusive m.model ~fname:"f" ~env));
  ]

let parallel_tests =
  let open Alcotest in
  let src =
    {|void scale_all(double *a, int n, int reps) {
        for (int r = 0; r < reps; r++) {
          #pragma @Annotation {parallel:yes}
          for (int i = 0; i < n; i++) {
            a[i] = 2.0 * a[i];
          }
        }
      }|}
  in
  [
    test_case "split separates serial and parallel counts" `Quick (fun () ->
        let m = Mira_core.Mira.analyze ~source_name:"par.mc" src in
        let split =
          Mira_core.Mira.counts_split m ~fname:"scale_all"
            ~env:[ ("n", 1000); ("reps", 4) ]
        in
        let total =
          Mira_core.Mira.counts m ~fname:"scale_all"
            ~env:[ ("n", 1000); ("reps", 4) ]
        in
        (* split sums back to the total *)
        List.iter
          (fun (mn, (s, p)) ->
            check (float 1e-9) (mn ^ " sums")
              (Mira_core.Model_eval.count total mn)
              (s +. p))
          split;
        (* the multiplies are in the parallel part; the outer loop's
           own control is serial *)
        let _, mul_par = List.assoc "mulsd" split in
        check (float 0.0) "mulsd parallel" 4000.0 mul_par;
        let incq_s, incq_p = List.assoc "incq" split in
        check (float 0.0) "outer steps serial" 4.0 incq_s;
        check (float 0.0) "inner steps parallel" 4000.0 incq_p);
    test_case "Amdahl-style speedup estimate" `Quick (fun () ->
        let m = Mira_core.Mira.analyze ~source_name:"par.mc" src in
        let split =
          Mira_core.Mira.counts_split m ~fname:"scale_all"
            ~env:[ ("n", 100000); ("reps", 2) ]
        in
        let est1 =
          Mira_core.Predict.parallel_estimate Mira_arch.Archdesc.arya ~cores:1
            split
        in
        let est8 =
          Mira_core.Predict.parallel_estimate Mira_arch.Archdesc.arya ~cores:8
            split
        in
        check (float 1e-9) "1 core = no speedup" 1.0 est1.speedup;
        check bool "8 cores speed up" true (est8.speedup > 6.0);
        check bool "bounded by cores" true (est8.speedup <= 8.0);
        check bool "monotone time" true
          (est8.seconds_parallel < est1.seconds_parallel));
    test_case "a serial model has speedup 1" `Quick (fun () ->
        let m =
          Mira_core.Mira.analyze ~source_name:"s.mc"
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
        in
        let split =
          Mira_core.Mira.counts_split m ~fname:"f" ~env:[ ("n", 100) ]
        in
        let est =
          Mira_core.Predict.parallel_estimate Mira_arch.Archdesc.arya ~cores:36
            split
        in
        check (float 1e-9) "no parallel cycles" 0.0 est.parallel_cycles;
        check (float 1e-9) "speedup 1" 1.0 est.speedup);
    test_case "parallel loop calling a function parallelizes the callee"
      `Quick (fun () ->
        let src =
          {|double piece(double *a, int i) { return a[i] * 0.5; }
            double total(double *a, int n) {
              double s = 0.0;
              #pragma @Annotation {parallel:yes}
              for (int i = 0; i < n; i++) {
                s += piece(a, i);
              }
              return s;
            }|}
        in
        let m = Mira_core.Mira.analyze ~source_name:"pc.mc" src in
        let split =
          Mira_core.Mira.counts_split m ~fname:"total" ~env:[ ("n", 64) ]
        in
        let _, mul_par = List.assoc "mulsd" split in
        check (float 0.0) "callee multiplies are parallel" 64.0 mul_par);
  ]

let liveness_tests =
  let open Alcotest in
  [
    test_case "copy propagation removes protective copies at O1" `Quick
      (fun () ->
        let src =
          {|void triad(double *a, double *b, double *c, double s, int n) {
              for (int i = 0; i < n; i++) { a[i] = b[i] + s * c[i]; }
            }|}
        in
        let count level =
          let prog = Mira_codegen.Codegen.compile ~level src in
          let f = Mira_visa.Program.find_exn prog "triad" in
          Array.length f.insns
        in
        check bool "O1 emits fewer instructions than O0" true
          (count Mira_codegen.Codegen.O1 < count Mira_codegen.Codegen.O0));
    test_case "dead computations are eliminated" `Quick (fun () ->
        (* u is computed but never used *)
        let src =
          {|double f(double *a, int n) {
              double s = 0.0;
              for (int i = 0; i < n; i++) {
                double u = a[i] * 3.0;
                s += a[i];
              }
              return s;
            }|}
        in
        let m = Mira_core.Mira.analyze ~source_name:"d.mc" src in
        let counts = Mira_core.Mira.counts m ~fname:"f" ~env:[ ("n", 100) ] in
        (* the multiply by 3.0 never survives *)
        check (float 0.0) "no mulsd" 0.0
          (Mira_core.Model_eval.count counts "mulsd");
        (* and the program still computes the right sum *)
        let vm = Mira_vm.Vm.load_object m.input.object_bytes in
        let a = Mira_vm.Vm.alloc_floats vm (Array.make 100 2.0) in
        (match Mira_vm.Vm.call vm "f" [ Int a; Int 100 ] with
        | Double v -> check (float 1e-9) "sum" 200.0 v
        | _ -> fail "expected double"));
    test_case "stores and calls are never eliminated" `Quick (fun () ->
        let src =
          {|extern double sqrt(double);
            void g(double *a, int n) {
              for (int i = 0; i < n; i++) {
                a[i] = sqrt(a[i]);
              }
            }|}
        in
        let prog = Mira_codegen.Codegen.compile src in
        let vm = Mira_vm.Vm.create prog in
        let a = Mira_vm.Vm.alloc_floats vm (Array.make 16 4.0) in
        ignore (Mira_vm.Vm.call vm "g" [ Int a; Int 16 ]);
        let out = Mira_vm.Vm.read_floats vm a 16 in
        check (float 1e-9) "store survived" 2.0 out.(0));
  ]

let cache_tests =
  let open Alcotest in
  [
    test_case "geometry validation" `Quick (fun () ->
        (match Mira_vm.Cache.create ~size_bytes:0 () with
        | exception Invalid_argument _ -> ()
        | _ -> fail "zero capacity accepted");
        match Mira_vm.Cache.create ~line_bytes:12 ~size_bytes:4096 () with
        | exception Invalid_argument _ -> ()
        | _ -> fail "fractional doubles per line accepted");
    test_case "sequential streaming: one miss per line" `Quick (fun () ->
        let c = Mira_vm.Cache.create ~size_bytes:(32 * 1024) () in
        for i = 0 to 799 do
          ignore (Mira_vm.Cache.access c i)
        done;
        let s = Mira_vm.Cache.stats c in
        (* 64 B lines = 8 doubles: 100 lines for 800 accesses *)
        check int "misses" 100 s.misses;
        check int "hits" 700 s.hits);
    test_case "working set inside capacity: second pass all hits" `Quick
      (fun () ->
        let c = Mira_vm.Cache.create ~size_bytes:(32 * 1024) () in
        for i = 0 to 999 do
          ignore (Mira_vm.Cache.access c i)
        done;
        let first = Mira_vm.Cache.stats c in
        for i = 0 to 999 do
          ignore (Mira_vm.Cache.access c i)
        done;
        let second = Mira_vm.Cache.stats c in
        check int "no new misses" first.misses second.misses);
    test_case "working set beyond capacity: LRU thrashes on re-scan" `Quick
      (fun () ->
        (* 1 KiB cache = 128 doubles; scanning 512 doubles twice gives
           no reuse under LRU *)
        let c = Mira_vm.Cache.create ~size_bytes:1024 () in
        for _ = 1 to 2 do
          for i = 0 to 511 do
            ignore (Mira_vm.Cache.access c i)
          done
        done;
        let s = Mira_vm.Cache.stats c in
        check int "every line missed twice" 128 s.misses;
        check bool "evictions occurred" true (s.evictions > 0));
    test_case "VM integration: triad misses match streaming traffic" `Quick
      (fun () ->
        let src =
          {|void triad(double *a, double *b, double *c, double s, int n) {
              for (int i = 0; i < n; i++) { a[i] = b[i] + s * c[i]; }
            }|}
        in
        let prog = Mira_codegen.Codegen.compile src in
        let vm = Mira_vm.Vm.create prog in
        let cache = Mira_vm.Cache.create ~size_bytes:(256 * 1024) () in
        Mira_vm.Vm.attach_cache vm cache;
        let n = 4096 in
        let a = Mira_vm.Vm.zeros_f vm n in
        let b = Mira_vm.Vm.alloc_floats vm (Array.make n 1.0) in
        let c = Mira_vm.Vm.alloc_floats vm (Array.make n 2.0) in
        ignore
          (Mira_vm.Vm.call vm "triad" [ Int a; Int b; Int c; Double 3.0; Int n ]);
        let s = Option.get (Mira_vm.Vm.cache_stats vm) in
        check int "3n accesses" (3 * n) s.accesses;
        (* three streams x n/8 lines, cold cache *)
        check int "streaming misses" (3 * n / 8) s.misses;
        (* measured traffic vs the model's static FP-byte estimate:
           same order (model counts all movsd, cache counts lines) *)
        let m = Mira_core.Mira.analyze ~source_name:"t.mc" src in
        let counts = Mira_core.Mira.counts m ~fname:"triad" ~env:[ ("n", n) ] in
        let static_bytes =
          8.0 *. Mira_core.Model_eval.count counts "movsd"
        in
        let measured =
          Mira_vm.Cache.miss_traffic_bytes (Option.get (Mira_vm.Vm.cache vm))
        in
        check bool "same order of magnitude" true
          (static_bytes /. measured < 10.0 && measured /. static_bytes < 10.0));
  ]

let () =
  Alcotest.run "mira-units"
    [
      ("bridge", bridge_tests);
      ("arch", arch_tests);
      ("report", report_tests);
      ("pbound", pbound_tests);
      ("tau", tau_tests);
      ("vectorize", vectorize_tests);
      ("model", model_tests);
      ("predict", predict_tests);
      ("parallel", parallel_tests);
      ("exclusive", exclusive_tests);
      ("cache", cache_tests);
      ("liveness", liveness_tests);
    ]
