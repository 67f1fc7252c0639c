(* End-to-end validation on the paper's workloads: Mira's static FPI
   predictions against VM-measured ground truth (the Table III/IV/V
   methodology at test-friendly sizes). *)

let analyze name src = Mira_core.Mira.analyze ~source_name:(name ^ ".mc") src

let dyn_fpi vm fname =
  match Mira_vm.Vm.profile_of vm fname with
  | None -> Alcotest.failf "no profile for %s" fname
  | Some p ->
      List.fold_left
        (fun acc m -> acc +. float_of_int (Mira_vm.Vm.count_of p m))
        0.0 Mira_core.Model_eval.fp_mnemonics

let every_program_tests =
  let open Alcotest in
  List.map
    (fun (name, src) ->
      test_case (name ^ " compiles, runs and models") `Quick (fun () ->
          (* main() must execute successfully *)
          let prog = Mira_codegen.Codegen.compile src in
          let vm = Mira_vm.Vm.create ~step_limit:500_000_000 prog in
          (match Mira_vm.Vm.call vm "main" [] with
          | Mira_vm.Vm.Int 0 -> ()
          | Mira_vm.Vm.Int n -> failf "%s: main returned %d" name n
          | _ -> failf "%s: main returned non-int" name);
          (* analysis must succeed and produce a model per function *)
          let m = analyze name src in
          check bool "has models" true
            (List.length m.model.functions > 0)))
    Mira_corpus.Corpus.all

let stream_tests =
  let open Alcotest in
  [
    test_case "STREAM: static FPI = 4*n*ntimes and matches VM exactly"
      `Quick (fun () ->
        let n = 2000 and ntimes = 3 in
        let m = analyze "stream" Mira_corpus.Corpus.stream in
        let static =
          Mira_core.Mira.fpi m ~fname:"stream_driver"
            ~env:[ ("n", n); ("ntimes", ntimes) ]
        in
        check (float 0.0) "closed form" (float_of_int (4 * n * ntimes)) static;
        let vm = Mira_corpus.Corpus.run_stream ~n ~ntimes in
        check (float 0.0) "matches dynamic" (dyn_fpi vm "stream_driver") static);
    test_case "STREAM: paper sizes reproduce Table III" `Quick (fun () ->
        let m = analyze "stream" Mira_corpus.Corpus.stream in
        let fpi n =
          Mira_core.Mira.fpi m ~fname:"stream_driver"
            ~env:[ ("n", n); ("ntimes", 10) ]
        in
        (* Table III: 2M -> 8.2E7 (Mira column) *)
        check (float 0.0) "2M" 8.0e7 (fpi 2_000_000);
        check (float 0.0) "50M" 2.0e9 (fpi 50_000_000);
        check (float 0.0) "100M" 4.0e9 (fpi 100_000_000));
    test_case "STREAM: per-kernel models" `Quick (fun () ->
        let m = analyze "stream" Mira_corpus.Corpus.stream in
        let fpi f = Mira_core.Mira.fpi m ~fname:f ~env:[ ("n", 100) ] in
        check (float 0.0) "copy has no flops" 0.0 (fpi "stream_copy");
        check (float 0.0) "scale" 100.0 (fpi "stream_scale");
        check (float 0.0) "add" 100.0 (fpi "stream_add");
        check (float 0.0) "triad" 200.0 (fpi "stream_triad"));
  ]

let dgemm_tests =
  let open Alcotest in
  [
    test_case "DGEMM: static matches dynamic exactly" `Quick (fun () ->
        let n = 20 in
        let m = analyze "dgemm" Mira_corpus.Corpus.dgemm in
        let static = Mira_core.Mira.fpi m ~fname:"dgemm" ~env:[ ("n", n) ] in
        let vm = Mira_corpus.Corpus.run_dgemm ~n in
        check (float 0.0) "fpi" (dyn_fpi vm "dgemm") static;
        (* leading term 2n^3 *)
        check bool "within 2n^3 .. 2n^3 + O(n^2)" true
          (static >= float_of_int (2 * n * n * n)
          && static <= float_of_int ((2 * n * n * n) + (8 * n * n))));
    test_case "DGEMM: paper sizes scale as 2n^3" `Quick (fun () ->
        let m = analyze "dgemm" Mira_corpus.Corpus.dgemm in
        let f n = Mira_core.Mira.fpi m ~fname:"dgemm" ~env:[ ("n", n) ] in
        let r = f 512 /. f 256 in
        check bool "doubling n costs ~8x" true (r > 7.8 && r < 8.2));
  ]

let minife_tests =
  let open Alcotest in
  let nx, ny, nz = (8, 8, 8) in
  let max_iter = 20 in
  let nrows = nx * ny * nz in
  let lazy_setup =
    lazy
      (let m = analyze "minife" Mira_corpus.Corpus.minife in
       let run = Mira_corpus.Corpus.run_minife ~nx ~ny ~nz ~max_iter in
       (m, run))
  in
  [
    test_case "waxpby static = dynamic (per call)" `Quick (fun () ->
        let m, run = Lazy.force lazy_setup in
        let static =
          Mira_core.Mira.fpi m ~fname:"waxpby" ~env:[ ("n", nrows) ]
        in
        let p = Option.get (Mira_vm.Vm.profile_of run.vm "waxpby") in
        let dyn_total = dyn_fpi run.vm "waxpby" in
        let per_call = dyn_total /. float_of_int p.calls in
        check (float 0.0) "exact" per_call static);
    test_case "matvec static = dynamic (per call)" `Quick (fun () ->
        let m, run = Lazy.force lazy_setup in
        let static =
          Mira_core.Mira.fpi m ~fname:"matvec_std::apply"
            ~env:[ ("nrows", nrows) ]
        in
        let p = Option.get (Mira_vm.Vm.profile_of run.vm "matvec_std::apply") in
        check int "called once per iteration" max_iter p.calls;
        let per_call = dyn_fpi run.vm "matvec_std::apply" /. float_of_int p.calls in
        check (float 0.0) "exact (padded rows)" per_call static);
    test_case "cg_solve: small undercount from external sqrt" `Quick
      (fun () ->
        let m, run = Lazy.force lazy_setup in
        let static =
          Mira_core.Mira.fpi m ~fname:"cg_solve"
            ~env:[ ("nrows", nrows); ("max_iter", max_iter) ]
        in
        let dyn = dyn_fpi run.vm "cg_solve" in
        check bool "static undercounts (sqrt not visible)" true (static < dyn);
        let err = (dyn -. static) /. dyn *. 100.0 in
        check bool
          (Printf.sprintf "error %.3f%% below 4%% (paper: <= 3.08%%)" err)
          true (err < 4.0));
    test_case "CG actually converges on the test problem" `Quick (fun () ->
        let _, run = Lazy.force lazy_setup in
        check bool "residual dropped" true (run.final_norm < 1.0));
    test_case "model warnings include the CSR annotation context" `Quick
      (fun () ->
        let m, _ = Lazy.force lazy_setup in
        (* matvec's data-dependent inner bound must NOT warn (it is
           annotated); the double-comparison in main may warn *)
        let warnings = Mira_core.Mira.warnings m in
        check bool "no warnings for matvec" true
          (not
             (List.exists
                (fun (f, _) -> f = "matvec_std::apply")
                warnings)));
  ]

(* assemble's 27-point loop is the domain whose bounds checks factor
   into one group per axis; the VM is its oracle at every level, on
   grids whose edges leave each axis with 1 to 6 cells. *)
let assemble_tests =
  let open Alcotest in
  let sizes = [ 1; 2; 3; 4; 6 ] in
  [
    test_case "assemble: model = VM at {1,2,3,4,6}^3, O0-O2" `Quick
      (fun () ->
        List.iter
          (fun level ->
            let m =
              Mira_core.Mira.analyze ~level ~source_name:"minife.mc"
                Mira_corpus.Corpus.minife
            in
            let check_grid nx ny nz =
              let static =
                Mira_core.Mira.counts m ~fname:"assemble"
                  ~env:[ ("nx", nx); ("ny", ny); ("nz", nz) ]
              in
              let vm = Mira_vm.Vm.load_object m.input.object_bytes in
              let nrows = nx * ny * nz in
              let row_ptr = Mira_vm.Vm.zeros_i vm (nrows + 1) in
              let col_idx = Mira_vm.Vm.zeros_i vm (27 * nrows) in
              let vals = Mira_vm.Vm.zeros_f vm (27 * nrows) in
              ignore
                (Mira_vm.Vm.call vm "assemble"
                   [ Int nx; Int ny; Int nz; Int row_ptr; Int col_idx;
                     Int vals ]);
              let p = Option.get (Mira_vm.Vm.profile_of vm "assemble") in
              List.iter
                (fun mn ->
                  check (float 0.0)
                    (Printf.sprintf "%s at nx=%d ny=%d nz=%d" mn nx ny nz)
                    (float_of_int (Mira_vm.Vm.count_of p mn))
                    (Mira_core.Model_eval.count static mn))
                (List.sort_uniq compare
                   (List.map fst static @ List.map fst p.Mira_vm.Vm.inclusive))
            in
            List.iter
              (fun nx ->
                List.iter
                  (fun ny -> List.iter (fun nz -> check_grid nx ny nz) sizes)
                  sizes)
              sizes)
          Mira_codegen.Codegen.[ O0; O1; O2 ]);
  ]

let coverage_tests =
  let open Alcotest in
  [
    test_case "Table I: corpus loop coverage" `Quick (fun () ->
        let rows =
          List.map
            (fun (name, src) ->
              Mira_core.Coverage.of_program ~name
                (Mira_srclang.Parser.parse src))
            Mira_corpus.Corpus.all
        in
        List.iter
          (fun (r : Mira_core.Coverage.t) ->
            check bool
              (Printf.sprintf "%s coverage %.0f%% in [50, 100]" r.app
                 (Mira_core.Coverage.percentage r))
              true
              (Mira_core.Coverage.percentage r >= 50.0
              && Mira_core.Coverage.percentage r <= 100.0);
            check bool (r.app ^ " has loops") true (r.loops > 0))
          rows;
        (* the survey's point: most statements live in loops *)
        let total_stmts =
          List.fold_left (fun acc r -> acc + r.Mira_core.Coverage.statements) 0 rows
        in
        let total_in =
          List.fold_left (fun acc r -> acc + r.Mira_core.Coverage.in_loops) 0 rows
        in
        check bool "aggregate coverage >= 70%" true
          (float_of_int total_in /. float_of_int total_stmts >= 0.7));
  ]

let () =
  Alcotest.run "corpus"
    [
      ("programs", every_program_tests);
      ("stream", stream_tests);
      ("dgemm", dgemm_tests);
      ("minife", minife_tests);
      ("assemble", assemble_tests);
      ("coverage", coverage_tests);
    ]
