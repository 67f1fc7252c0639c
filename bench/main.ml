(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (section IV), prints paper-vs-measured rows, and
   runs a bechamel timing suite for the static-vs-dynamic cost claim
   (section IV-D1).

   Run with: dune exec bench/main.exe
   Pass --fast to shrink the dynamic workloads. *)

let fast = Array.exists (( = ) "--fast") Sys.argv

let sci = Mira_core.Report.scientific

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let dyn_fpi vm fname =
  match Mira_vm.Vm.profile_of vm fname with
  | None -> nan
  | Some p ->
      List.fold_left
        (fun acc mn -> acc +. float_of_int (Mira_vm.Vm.count_of p mn))
        0.0 Mira_core.Model_eval.fp_mnemonics

let dyn_fpi_per_call vm fname =
  match Mira_vm.Vm.profile_of vm fname with
  | None -> nan
  | Some p -> dyn_fpi vm fname /. float_of_int p.calls

let err_pct dyn static =
  if dyn = 0.0 then 0.0 else Float.abs (dyn -. static) /. dyn *. 100.0

(* Analyses reused across sections. *)
let stream_m =
  Mira_core.Mira.analyze ~source_name:"stream.mc" Mira_corpus.Corpus.stream

let dgemm_m =
  Mira_core.Mira.analyze ~source_name:"dgemm.mc" Mira_corpus.Corpus.dgemm

let minife_m =
  Mira_core.Mira.analyze ~source_name:"minife.mc" Mira_corpus.Corpus.minife

(* ---------- Table I ---------- *)

let table1 () =
  header "Table I: loop coverage (our corpus; paper surveyed 77-100%)";
  let rows =
    List.map
      (fun (name, src) ->
        Mira_core.Coverage.of_program ~name (Mira_srclang.Parser.parse src))
      Mira_corpus.Corpus.all
  in
  print_string (Mira_core.Coverage.table rows);
  let ts = List.fold_left (fun a (r : Mira_core.Coverage.t) -> a + r.statements) 0 rows in
  let ti = List.fold_left (fun a (r : Mira_core.Coverage.t) -> a + r.in_loops) 0 rows in
  Printf.printf "aggregate: %.0f%% of statements inside loop scopes\n"
    (100.0 *. float_of_int ti /. float_of_int ts)

(* ---------- Figures 2 and 3 ---------- *)

let figures23 () =
  header "Figures 2-3: source and binary AST dumps (dot)";
  let nodes s =
    List.length
      (List.filter
         (fun l ->
           let l = String.trim l in
           String.length l > 1 && l.[0] = 'n' && String.contains l '[')
         (String.split_on_char '\n' s))
  in
  let src_dot = Mira_core.Mira.source_dot minife_m in
  let bin_dot = Mira_core.Mira.binary_dot minife_m in
  Printf.printf
    "miniFE source AST dot: %d nodes; binary AST dot: %d nodes\n"
    (nodes src_dot) (nodes bin_dot);
  print_endline "(regenerate with: mira dot corpus/minife.mc [--binary])"

(* ---------- Figure 4 ---------- *)

let figure4 () =
  header "Figure 4: polyhedral models of the paper's listings";
  let open Mira_symexpr in
  let open Mira_poly in
  let p_int = Poly.of_int and v = Poly.var in
  let l2 =
    Domain.add_level
      (Domain.add_level Domain.empty
         (Domain.level "i" ~lo:(p_int 1) ~hi:(p_int 4)))
      (Domain.level "j" ~lo:(Poly.add (v "i") Poly.one) ~hi:(p_int 6))
  in
  let cases =
    [
      ("Listing 2 (Fig 4a): dependent nest", l2, 14);
      ( "Listing 4 (Fig 4b): if (j > 4)",
        Domain.add_guard l2 (Domain.Ge (Poly.sub (v "j") (p_int 5))),
        8 );
      ( "Listing 5 (Fig 4c): if (j mod 4 != 0)",
        Domain.add_guard l2 (Domain.Mod_ne (v "j", 4)),
        11 );
    ]
  in
  List.iter
    (fun (title, dom, expected) ->
      let got = Count.eval ~params:[] (Count.count dom) in
      Printf.printf "%s: %d points (expected %d) %s\n" title got expected
        (if got = expected then "ok" else "MISMATCH");
      print_string (Plot.render dom))
    cases

(* ---------- Figure 5 ---------- *)

let figure5 () =
  header "Figure 5: generated Python model for the class example";
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
int main() {
  double a[16];
  double b[16];
  A inst;
  double r = inst.foo(a, b);
  if (r < 0.0) {
    return 1;
  }
  return 0;
}|}
  in
  let m = Mira_core.Mira.analyze ~source_name:"fig5.mc" src in
  print_string (Mira_core.Python_emit.emit_function m.model "A::foo")

(* ---------- Table II / Figure 6 ---------- *)

let table2_figure6 () =
  header "Table II + Figure 6: categorized instruction counts of cg_solve";
  let arch = Mira_arch.Archdesc.arya in
  let counts =
    Mira_core.Mira.counts minife_m ~fname:"cg_solve"
      ~env:[ ("nrows", 27_000); ("max_iter", 200) ]
  in
  Printf.printf "grid 30x30x30, 200 iterations (paper: 30x30x30)\n";
  print_string (Mira_core.Report.table2 arch counts);
  Printf.printf
    "(paper's rows for reference: int arith 6.8E8, control 2.26E8, int data 2.42E9,\n sse2 move 3.67E8, sse2 arith 1.93E8, misc 2.77E8, 64-bit 2.59E8)\n";
  print_endline "\nFigure 6 distribution:";
  print_string (Mira_core.Report.distribution arch counts)

(* ---------- Table III / Figure 7a ---------- *)

let table3 () =
  header "Table III + Figure 7a: STREAM FPI (TAU vs Mira)";
  Printf.printf "%-12s %-12s %-12s %-8s\n" "array size" "TAU" "Mira" "error";
  let vm_sizes = if fast then [ 50_000 ] else [ 200_000; 500_000; 1_000_000 ] in
  List.iter
    (fun n ->
      let vm = Mira_corpus.Corpus.run_stream ~n ~ntimes:10 in
      let dyn = dyn_fpi vm "stream_driver" in
      let static =
        Mira_core.Mira.fpi stream_m ~fname:"stream_driver"
          ~env:[ ("n", n); ("ntimes", 10) ]
      in
      Printf.printf "%-12s %-12s %-12s %6.2f%%\n"
        (string_of_int n) (sci dyn) (sci static) (err_pct dyn static))
    vm_sizes;
  List.iter
    (fun (n, paper_tau, paper_mira) ->
      let static =
        Mira_core.Mira.fpi stream_m ~fname:"stream_driver"
          ~env:[ ("n", n); ("ntimes", 10) ]
      in
      Printf.printf "%-12s %-12s %-12s   (model only; paper: TAU %s, Mira %s)\n"
        (string_of_int n) "-" (sci static) paper_tau paper_mira)
    [ (2_000_000, "8.239E7", "8.20E7");
      (50_000_000, "4.108E9", "4.100E9");
      (100_000_000, "2.055E10", "2.050E10") ]

(* ---------- Table IV / Figure 7b ---------- *)

let table4 () =
  header "Table IV + Figure 7b: DGEMM FPI (TAU vs Mira)";
  Printf.printf "%-12s %-12s %-12s %-8s\n" "matrix size" "TAU" "Mira" "error";
  let vm_sizes = if fast then [ 32 ] else [ 48; 96; 144 ] in
  List.iter
    (fun n ->
      let vm = Mira_corpus.Corpus.run_dgemm ~n in
      let dyn = dyn_fpi vm "dgemm" in
      let static = Mira_core.Mira.fpi dgemm_m ~fname:"dgemm" ~env:[ ("n", n) ] in
      Printf.printf "%-12d %-12s %-12s %6.2f%%\n" n (sci dyn) (sci static)
        (err_pct dyn static))
    vm_sizes;
  List.iter
    (fun (n, paper_tau, paper_mira) ->
      let static = Mira_core.Mira.fpi dgemm_m ~fname:"dgemm" ~env:[ ("n", n) ] in
      Printf.printf "%-12d %-12s %-12s   (model only; paper: TAU %s, Mira %s)\n"
        n "-" (sci static) paper_tau paper_mira)
    [ (256, "1.013E9", "1.0125E9"); (512, "8.077E9", "8.0769E9");
      (1024, "6.452E10", "6.4519E10") ]

(* ---------- Table V / Figures 7c-d ---------- *)

let table5 () =
  header "Table V + Figures 7c-d: miniFE per-function FPI (TAU vs Mira)";
  let grids =
    if fast then [ (6, 6, 6, 20) ] else [ (8, 8, 8, 50); (10, 12, 14, 50) ]
  in
  List.iter
    (fun (nx, ny, nz, max_iter) ->
      let run = Mira_corpus.Corpus.run_minife ~nx ~ny ~nz ~max_iter in
      let nrows = run.nrows in
      Printf.printf "grid %dx%dx%d (%d iterations):\n" nx ny nz max_iter;
      Printf.printf "  %-22s %-12s %-12s %-8s\n" "function" "TAU" "Mira" "error";
      List.iter
        (fun (fname, env) ->
          let static = Mira_core.Mira.fpi minife_m ~fname ~env in
          let dyn = dyn_fpi_per_call run.vm fname in
          Printf.printf "  %-22s %-12s %-12s %6.2f%%\n" fname (sci dyn)
            (sci static) (err_pct dyn static))
        [
          ("waxpby", [ ("n", nrows) ]);
          ("matvec_std::apply", [ ("nrows", nrows) ]);
          ("cg_solve", [ ("nrows", nrows); ("max_iter", max_iter) ]);
        ])
    grids;
  print_endline "paper grids, model only (200 iterations):";
  List.iter
    (fun (nx, ny, nz, paper) ->
      let nrows = nx * ny * nz in
      let static =
        Mira_core.Mira.fpi minife_m ~fname:"cg_solve"
          ~env:[ ("nrows", nrows); ("max_iter", 200) ]
      in
      Printf.printf "  %2dx%2dx%2d cg_solve FPI = %-10s (paper Mira: %s)\n" nx
        ny nz (sci static) paper)
    [ (30, 30, 30, "1.925E8"); (35, 40, 45, "7.386E8") ]

(* ---------- arithmetic intensity ---------- *)

let intensity () =
  header "Prediction (section IV-D2): arithmetic intensity of cg_solve";
  let arch = Mira_arch.Archdesc.arya in
  let counts =
    Mira_core.Mira.counts minife_m ~fname:"cg_solve"
      ~env:[ ("nrows", 27_000); ("max_iter", 200) ]
  in
  Printf.printf "instruction-based AI = %.2f (paper: 1.93E8/3.67E8 = 0.53)\n"
    (Mira_core.Report.arithmetic_intensity arch counts);
  Printf.printf "roofline estimate on %s: %.1f GFLOP/s attainable\n"
    arch.name
    (Mira_core.Report.roofline_gflops arch counts)

(* ---------- ablation A: PBound vs Mira ---------- *)

let ablation_pbound () =
  header "Ablation A: source-only (PBound) vs source+binary (Mira)";
  let n = if fast then 20_000 else 200_000 in
  let vm = Mira_corpus.Corpus.run_stream ~n ~ntimes:10 in
  let p = Option.get (Mira_vm.Vm.profile_of vm "stream_driver") in
  let dyn_total =
    List.fold_left (fun acc (_, c) -> acc +. float_of_int c) 0.0 p.inclusive
  in
  let mira_counts =
    Mira_core.Mira.counts stream_m ~fname:"stream_driver"
      ~env:[ ("n", n); ("ntimes", 10) ]
  in
  let mira_total = Mira_core.Model_eval.total mira_counts in
  let pb =
    Mira_baselines.Pbound.analyze ~source_name:"stream.mc"
      Mira_corpus.Corpus.stream
  in
  let pb_counts =
    Mira_core.Model_eval.eval pb ~fname:"stream_driver"
      ~env:[ ("n", n); ("ntimes", 10) ]
  in
  let pb_total = Mira_core.Model_eval.total pb_counts in
  Printf.printf "STREAM driver, n = %d: dynamic retired %s instructions\n" n
    (sci dyn_total);
  Printf.printf "  Mira (binary-aware) predicts  %-10s error %6.2f%%\n"
    (sci mira_total) (err_pct dyn_total mira_total);
  Printf.printf
    "  PBound (source ops) predicts  %-10s error %6.2f%% (source operations are not instructions)\n"
    (sci pb_total) (err_pct dyn_total pb_total);
  let dyn_fp = dyn_fpi vm "stream_driver" in
  Printf.printf "  FP only: dynamic %s, Mira %s, PBound source-flops %s\n"
    (sci dyn_fp)
    (sci (Mira_core.Model_eval.fpi mira_counts))
    (sci (Mira_baselines.Pbound.flops pb_counts))

(* ---------- ablation B: trip-count hazard ---------- *)

let ablation_vectorize () =
  header "Ablation B: -O2 vectorization breaks naive source-binary bridging";
  let n = if fast then 20_000 else 100_000 in
  let obj =
    Mira_codegen.Codegen.compile_to_object ~level:Mira_codegen.Codegen.O2
      Mira_corpus.Corpus.stream
  in
  let vm = Mira_vm.Vm.load_object obj in
  let a = Mira_vm.Vm.zeros_f vm n in
  let b = Mira_vm.Vm.zeros_f vm n in
  let c = Mira_vm.Vm.zeros_f vm n in
  ignore
    (Mira_vm.Vm.call vm "stream_driver"
       [ Int a; Int b; Int c; Double 3.0; Int n; Int 10 ]);
  let dyn = dyn_fpi vm "stream_driver" in
  let m2 =
    Mira_core.Mira.analyze ~level:Mira_codegen.Codegen.O2
      ~source_name:"stream.mc" Mira_corpus.Corpus.stream
  in
  let counts =
    Mira_core.Mira.counts m2 ~fname:"stream_driver"
      ~env:[ ("n", n); ("ntimes", 10) ]
  in
  let naive = Mira_core.Model_eval.fpi counts in
  (* the correction needs the model's per-line structure: packed main
     loops count 1/lanes, their scalar remainder copies drop out *)
  let prog = Mira_visa.Objfile.decode obj in
  let vectorized = Mira_codegen.Vectorize.vectorized_lines prog in
  let corrected =
    Mira_core.Model_eval.fpi_vectorization_aware m2.model ~lanes:2 ~vectorized
      ~fname:"stream_driver"
      ~env:[ ("n", n); ("ntimes", 10) ]
  in
  Printf.printf "STREAM at -O2, n = %d:\n" n;
  Printf.printf "  dynamic FPI                %s\n" (sci dyn);
  Printf.printf "  naive bridged model        %-10s error %6.2f%% (packed main loop AND its\n"
    (sci naive) (err_pct dyn naive);
  Printf.printf "                                        scalar remainder both bridged at full trip count)\n";
  Printf.printf "  packed-aware correction    %-10s error %6.2f%%\n"
    (sci corrected) (err_pct dyn corrected)

(* ---------- prediction + shared-memory extension ---------- *)

let prediction_extension () =
  header "Prediction (extension): time estimates and architecture ranking";
  let counts =
    Mira_core.Mira.counts minife_m ~fname:"cg_solve"
      ~env:[ ("nrows", 27_000); ("max_iter", 200) ]
  in
  let ranked =
    Mira_core.Predict.compare_architectures
      [ Mira_arch.Archdesc.arya; Mira_arch.Archdesc.frankenstein ]
      counts
  in
  List.iter
    (fun (_, p) -> print_endline (Mira_core.Predict.to_string p))
    ranked;
  header "Extension: shared-memory characterization (paper future work)";
  let par_src =
    {|void triad_par(double *a, double *b, double *c, double s, int n, int reps) {
  for (int r = 0; r < reps; r++) {
    #pragma @Annotation {parallel:yes}
    for (int i = 0; i < n; i++) {
      a[i] = b[i] + s * c[i];
    }
  }
}|}
  in
  let m = Mira_core.Mira.analyze ~source_name:"triad_par.mc" par_src in
  let split =
    Mira_core.Mira.counts_split m ~fname:"triad_par"
      ~env:[ ("n", 10_000_000); ("reps", 10) ]
  in
  Printf.printf "parallel STREAM triad (n = 10M, 10 reps) on arya:\n";
  Printf.printf "  %-8s %-12s %-10s %-10s\n" "cores" "est. time" "speedup"
    "efficiency";
  List.iter
    (fun cores ->
      let e =
        Mira_core.Predict.parallel_estimate Mira_arch.Archdesc.arya ~cores
          split
      in
      Printf.printf "  %-8d %-12.4f %-10.2f %-10.0f%%\n" cores
        e.seconds_parallel e.speedup (100.0 *. e.efficiency))
    [ 1; 2; 4; 8; 18; 36 ]

(* ---------- memory behavior (cache simulator) ---------- *)

let cache_behavior () =
  header "Memory behavior: simulated 256 KiB data cache (extension)";
  let run_with_cache setup =
    let cache = Mira_vm.Cache.create ~size_bytes:(256 * 1024) () in
    let vm = setup cache in
    ignore vm;
    Mira_vm.Cache.stats cache
  in
  let stream_stats =
    run_with_cache (fun cache ->
        let n = if fast then 20_000 else 200_000 in
        let prog = Mira_codegen.Codegen.compile Mira_corpus.Corpus.stream in
        let vm = Mira_vm.Vm.create prog in
        Mira_vm.Vm.attach_cache vm cache;
        let a = Mira_vm.Vm.zeros_f vm n in
        let b = Mira_vm.Vm.zeros_f vm n in
        let c = Mira_vm.Vm.zeros_f vm n in
        ignore
          (Mira_vm.Vm.call vm "stream_driver"
             [ Int a; Int b; Int c; Double 3.0; Int n; Int 10 ]);
        vm)
  in
  let dgemm_stats =
    run_with_cache (fun cache ->
        let n = if fast then 32 else 96 in
        let prog = Mira_codegen.Codegen.compile Mira_corpus.Corpus.dgemm in
        let vm = Mira_vm.Vm.create prog in
        Mira_vm.Vm.attach_cache vm cache;
        let a = Mira_vm.Vm.alloc_floats vm (Array.make (n * n) 1.0) in
        let b = Mira_vm.Vm.alloc_floats vm (Array.make (n * n) 0.5) in
        let c = Mira_vm.Vm.zeros_f vm (n * n) in
        ignore
          (Mira_vm.Vm.call vm "dgemm"
             [ Int n; Double 1.0; Int a; Int b; Double 0.0; Int c ]);
        vm)
  in
  let show name (s : Mira_vm.Cache.stats) =
    Printf.printf "  %-10s accesses %-10d miss rate %5.2f%%\n" name s.accesses
      (100.0 *. float_of_int s.misses /. float_of_int (max 1 s.accesses))
  in
  show "stream" stream_stats;
  show "dgemm" dgemm_stats;
  print_endline
    "  (streaming kernels miss once per line; the blocked working set of\n\
    \   dgemm at this size largely fits, matching the roofline verdicts)"

(* ---------- bechamel timing suite ---------- *)

let timing_suite () =
  header "Timing (bechamel): static analysis and evaluation vs execution";
  let open Bechamel in
  let open Toolkit in
  let n = 100_000 in
  let tests =
    [
      Test.make ~name:"t1-coverage"
        (Staged.stage (fun () ->
             List.iter
               (fun (name, src) ->
                 ignore
                   (Mira_core.Coverage.of_program ~name
                      (Mira_srclang.Parser.parse src)))
               Mira_corpus.Corpus.all));
      Test.make ~name:"t2-categorize"
        (Staged.stage (fun () ->
             ignore
               (Mira_core.Report.table2 Mira_arch.Archdesc.arya
                  (Mira_core.Mira.counts minife_m ~fname:"cg_solve"
                     ~env:[ ("nrows", 27_000); ("max_iter", 200) ]))));
      Test.make ~name:"t3-stream-model-eval"
        (Staged.stage (fun () ->
             ignore
               (Mira_core.Mira.fpi stream_m ~fname:"stream_driver"
                  ~env:[ ("n", n); ("ntimes", 10) ])));
      Test.make ~name:"t4-dgemm-model-eval"
        (Staged.stage (fun () ->
             ignore
               (Mira_core.Mira.fpi dgemm_m ~fname:"dgemm" ~env:[ ("n", 1024) ])));
      Test.make ~name:"t5-minife-model-eval"
        (Staged.stage (fun () ->
             ignore
               (Mira_core.Mira.fpi minife_m ~fname:"cg_solve"
                  ~env:[ ("nrows", 27_000); ("max_iter", 200) ])));
      Test.make ~name:"analyze-stream-model-generation"
        (Staged.stage (fun () ->
             ignore
               (Mira_core.Mira.analyze ~source_name:"stream.mc"
                  Mira_corpus.Corpus.stream)));
      Test.make ~name:"vm-run-stream-n1000"
        (Staged.stage (fun () ->
             ignore (Mira_corpus.Corpus.run_stream ~n:1_000 ~ntimes:1)));
      Test.make ~name:"poly-count-triangular"
        (Staged.stage (fun () ->
             let open Mira_symexpr in
             let open Mira_poly in
             let d =
               Domain.add_level
                 (Domain.add_level Domain.empty
                    (Domain.level "i" ~lo:(Poly.of_int 0)
                       ~hi:(Poly.sub (Poly.var "n") Poly.one)))
                 (Domain.level "j" ~lo:(Poly.var "i")
                    ~hi:(Poly.sub (Poly.var "n") Poly.one))
             in
             ignore (Count.count d)));
    ]
  in
  let grouped = Test.make_grouped ~name:"mira" ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if fast then 0.2 else 0.5))
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-44s %14.1f ns/run\n" name est
      | _ -> Printf.printf "  %-44s (no estimate)\n" name)
    (List.sort compare rows)

let () =
  table1 ();
  figures23 ();
  figure4 ();
  figure5 ();
  table2_figure6 ();
  table3 ();
  table4 ();
  table5 ();
  intensity ();
  ablation_pbound ();
  ablation_vectorize ();
  prediction_extension ();
  cache_behavior ();
  timing_suite ();
  print_endline "\nbench: done"
