(* Function-granular incremental reanalysis guarantees:
   - editing one function of an N-function source re-analyzes only
     that function (asserted via the Batch.stats function-tier
     counters) and the assembled output is byte-identical to a cold
     whole-file analysis;
   - a formatting-only edit (no line shifts, no AST change) is pure
     cache work: 100% function-tier hits, zero re-analyses;
   - the property holds for random kernels from Kernelgen (the
     differential fuzzer's generator) at jobs=1 and jobs=4, and for a
     warm Session reanalyzing one draw into another at every level
     (the Python its update reports and its lookup renders);
   - the function tier's disk entries survive a fresh in-memory cache;
   - gc_disk evicts down to the cap and a gutted cache stays correct;
   - a whole file compiled from its prepared AST gives the object bytes
     its text gives, at every level;
   - every entry point — Mira.analyze, a cold Batch.run, a cached
     Batch.run assembled from the function tier, Session.watch — gives
     the same Python for every corpus program at every level.

   The kernelgen cases draw from fixed seeds; MIRA_FUZZ_SEED, when set,
   is mixed into each of them, so a seed sweep draws other kernels. *)

open Mira_core

(* Four functions; [mk_src] splices a constant into f2's body, so
   substituting a different literal edits exactly one function body
   without shifting any line. *)
let mk_src mult =
  {|int f1(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) {
    acc += i;
  }
  return acc;
}

double f2(double *a, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s += a[i] * |} ^ mult
  ^ {|;
  }
  return s;
}

double f3(double *a, double *b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s += a[i] * b[i];
  }
  return s;
}

int f4(int *p, int n) {
  int t = 0;
  for (int i = 0; i < n; i++) {
    t += p[i];
  }
  return t;
}
|}
let nfuncs = 4

let rng seed =
  Random.State.make
    (match Sys.getenv_opt "MIRA_FUZZ_SEED" with
    | None -> [| seed |]
    | Some s -> [| seed; int_of_string s |])

let python_of = function
  | Ok (a : Batch.analysis) -> a.a_python
  | Error (name, diag) -> name ^ ": " ^ Diag.to_string diag

let warnings_of = function
  | Ok (a : Batch.analysis) -> a.a_warnings
  | Error _ -> []

let strip_stats_lines report =
  (* "batch:"-prefixed trailing lines reflect cache tiers and are the
     one place incremental and cold runs may legitimately differ *)
  String.concat "\n"
    (List.filter
       (fun l -> not (String.length l >= 6 && String.sub l 0 6 = "batch:"))
       (String.split_on_char '\n' report))

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mira-incr-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let cache_files dir suffix =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f suffix)

let incremental_tests =
  let open Alcotest in
  [
    test_case "editing one function re-analyzes only that function" `Quick
      (fun () ->
        let cache = Batch.create_cache () in
        let _, s0 = Mira.analyze_batch ~cache [ ("prog.mc", mk_src "2.0") ] in
        check int "cold run is one whole-file analysis" 1 s0.Batch.st_analyzed;
        check int "cold run re-analyzes no function in isolation" 0
          s0.Batch.st_fn_analyzed;
        let results, s1 =
          Mira.analyze_batch ~cache [ ("prog.mc", mk_src "3.0") ]
        in
        check int "edited run assembles from the function tier" 1
          s1.Batch.st_assembled;
        check int "edited run runs no whole-file analysis" 0
          s1.Batch.st_analyzed;
        check int "only the edited function is re-analyzed" 1
          s1.Batch.st_fn_analyzed;
        check int "the other functions hit the memory tier" (nfuncs - 1)
          s1.Batch.st_fn_mem_hits;
        check bool "a real edit is not flagged cached" false
          (match results with [ Ok a ] -> a.Batch.a_cached | _ -> true);
        (* byte-identity with a cold whole-file analysis of the edit *)
        let cold_results, cold_stats =
          Mira.analyze_batch [ ("prog.mc", mk_src "3.0") ]
        in
        check bool "python byte-identical to cold" true
          (String.equal
             (String.concat "\x00" (List.map python_of results))
             (String.concat "\x00" (List.map python_of cold_results)));
        check bool "warnings identical to cold" true
          (List.map warnings_of results = List.map warnings_of cold_results);
        check bool "report identical to cold modulo stats lines" true
          (String.equal
             (strip_stats_lines (Batch.report results s1))
             (strip_stats_lines (Batch.report cold_results cold_stats))));
    test_case "formatting-only edit is 100% function-tier hits" `Quick
      (fun () ->
        let cache = Batch.create_cache () in
        let src = mk_src "2.0" in
        let seeded, _ = Mira.analyze_batch ~cache [ ("prog.mc", src) ] in
        (* trailing blank lines change the file-tier key but shift no
           token line, so every function digest is unchanged *)
        let formatted = src ^ "\n\n" in
        check bool "the file-tier key does change" false
          (String.equal
             (Batch.key ~level:Mira_codegen.Codegen.O1 src)
             (Batch.key ~level:Mira_codegen.Codegen.O1 formatted));
        let results, s =
          Mira.analyze_batch ~cache [ ("prog.mc", formatted) ]
        in
        check int "assembled" 1 s.Batch.st_assembled;
        check int "no function re-analyzed" 0 s.Batch.st_fn_analyzed;
        check int "every function hits" nfuncs s.Batch.st_fn_mem_hits;
        check bool "pure cache work is flagged cached" true
          (match results with [ Ok a ] -> a.Batch.a_cached | _ -> false);
        check bool "python identical to the seeded run" true
          (String.equal
             (String.concat "\x00" (List.map python_of seeded))
             (String.concat "\x00" (List.map python_of results))));
    test_case "random single-kernel edits: incremental = cold, jobs 1" `Quick
      (fun () ->
        let rng = rng 9182 in
        for _trial = 1 to 8 do
          let src1 = Kernelgen.render (Kernelgen.gen_kernel rng) in
          let src2 = Kernelgen.render (Kernelgen.gen_kernel rng) in
          let cold, _ = Mira.analyze_batch [ ("kern.mc", src2) ] in
          let cache = Batch.create_cache () in
          ignore (Mira.analyze_batch ~cache [ ("kern.mc", src1) ]);
          let inc, s = Mira.analyze_batch ~cache [ ("kern.mc", src2) ] in
          check bool "python identical" true
            (String.equal
               (String.concat "\x00" (List.map python_of cold))
               (String.concat "\x00" (List.map python_of inc)));
          check bool "warnings identical" true
            (List.map warnings_of cold = List.map warnings_of inc);
          if not (String.equal src1 src2) then begin
            (* only kern's body differs; dhelper and ihelper render
               first, on unchanged lines, so both must hit *)
            check int "helpers hit the function tier" 2
              s.Batch.st_fn_mem_hits;
            check int "only kern is re-analyzed" 1 s.Batch.st_fn_analyzed
          end
        done);
    test_case "random single-kernel edits: incremental = cold, jobs 4" `Quick
      (fun () ->
        let rng = rng 7341 in
        let pairs =
          List.init 4 (fun i ->
              ( Printf.sprintf "kern%d.mc" i,
                Kernelgen.render (Kernelgen.gen_kernel rng),
                Kernelgen.render (Kernelgen.gen_kernel rng) ))
        in
        let cold, _ =
          Mira.analyze_batch ~jobs:4
            (List.map (fun (n, _, s2) -> (n, s2)) pairs)
        in
        let cache = Batch.create_cache () in
        ignore
          (Mira.analyze_batch ~jobs:4 ~cache
             (List.map (fun (n, s1, _) -> (n, s1)) pairs));
        let inc, _ =
          Mira.analyze_batch ~jobs:4 ~cache
            (List.map (fun (n, _, s2) -> (n, s2)) pairs)
        in
        check bool "python identical across the batch" true
          (String.equal
             (String.concat "\x00" (List.map python_of cold))
             (String.concat "\x00" (List.map python_of inc))));
    test_case "random single-kernel edits: warm session = cold" `Quick
      (fun () ->
        let rng = rng 4817 in
        List.iter
          (fun level ->
            for _trial = 1 to 4 do
              let src1 = Kernelgen.render (Kernelgen.gen_kernel rng) in
              let src2 = Kernelgen.render (Kernelgen.gen_kernel rng) in
              let cold =
                match
                  Batch.run ~level
                    [ { Batch.src_name = "kern.mc"; src_text = src2 } ]
                with
                | [ r ], _ -> python_of r
                | _ -> fail "unexpected batch shape"
              in
              let s = Session.create ~level () in
              (match Session.watch s ~path:"kern.mc" src1 with
              | Ok _ -> ()
              | Error d -> failf "watch: %s" (Diag.to_string d));
              (match Session.reanalyze s ~path:"kern.mc" src2 with
              | Error d -> failf "reanalyze: %s" (Diag.to_string d)
              | Ok u -> (
                  match u.Session.up_models with
                  | [ ("kern.mc", model) ] ->
                      check bool "reported python = cold" true
                        (String.equal cold (Python_emit.emit model))
                  | [] when u.up_clean -> ()
                  | _ -> fail "the edit must reassemble exactly kern.mc"));
              match Session.lookup s ~path:"kern.mc" with
              | Some info ->
                  check bool "looked-up python = cold" true
                    (String.equal cold info.Session.in_python)
              | None -> fail "kern.mc is no longer watched"
            done)
          Mira_codegen.Codegen.[ O0; O1; O2 ]);
    test_case "function disk tier survives a fresh memory cache" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let c1 = Batch.create_cache ~dir () in
            ignore (Mira.analyze_batch ~cache:c1 [ ("prog.mc", mk_src "2.0") ]);
            check bool "function entries were published" true
              (List.length (cache_files dir ".fnmodel") = nfuncs);
            (* new cache value = empty memory tiers, same directory *)
            let c2 = Batch.create_cache ~dir () in
            let results, s =
              Mira.analyze_batch ~cache:c2 [ ("prog.mc", mk_src "3.0") ]
            in
            check int "assembled" 1 s.Batch.st_assembled;
            check int "unchanged functions come off disk" (nfuncs - 1)
              s.Batch.st_fn_disk_hits;
            check int "only the edit is re-analyzed" 1 s.Batch.st_fn_analyzed;
            let cold, _ = Mira.analyze_batch [ ("prog.mc", mk_src "3.0") ] in
            check bool "python identical to cold" true
              (String.equal
                 (String.concat "\x00" (List.map python_of results))
                 (String.concat "\x00" (List.map python_of cold)))));
    test_case "gc_disk evicts to the cap; a gutted cache stays correct"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let c = Batch.create_cache ~dir () in
            let reference, _ =
              Mira.analyze_batch ~cache:c [ ("prog.mc", mk_src "2.0") ]
            in
            let entries () =
              List.length (cache_files dir ".model")
              + List.length (cache_files dir ".fnmodel")
            in
            let published = entries () in
            check bool "entries were published" true (published > 0);
            (* far under the cap: nothing to do *)
            let removed, freed =
              Batch.gc_disk ~max_bytes:(64 * 1024 * 1024) c
            in
            check int "no eviction under the cap (removed)" 0 removed;
            check int "no eviction under the cap (freed)" 0 freed;
            check int "entries untouched" published (entries ());
            (* cap of one byte: everything must go *)
            let removed, freed = Batch.gc_disk ~max_bytes:1 c in
            check int "every entry evicted" published removed;
            check bool "bytes freed" true (freed > 0);
            check int "directory holds no entries" 0 (entries ());
            (* a fresh cache over the gutted directory just misses *)
            let c2 = Batch.create_cache ~dir () in
            let results, s =
              Mira.analyze_batch ~cache:c2 [ ("prog.mc", mk_src "2.0") ]
            in
            check int "re-analyzed from scratch" 1 s.Batch.st_analyzed;
            check bool "output unchanged after eviction" true
              (String.equal
                 (String.concat "\x00" (List.map python_of reference))
                 (String.concat "\x00" (List.map python_of results)))));
    test_case "the prepared AST compiles to the text's object bytes" `Quick
      (fun () ->
        let rng = rng 20260806 in
        let kernels =
          List.init 20 (fun i ->
              ( Printf.sprintf "kern%d.mc" i,
                Kernelgen.render (Kernelgen.gen_kernel rng) ))
        in
        List.iter
          (fun level ->
            List.iter
              (fun (name, src) ->
                let input, _ =
                  Input_processor.parts (Input_processor.prepare ~level src)
                in
                check bool name true
                  (String.equal
                     (Mira_codegen.Codegen.compile_to_object ~level src)
                     input.Input_processor.object_bytes))
              (Mira_corpus.Corpus.all @ kernels))
          Mira_codegen.Codegen.[ O0; O1; O2 ]);
    test_case "every entry point gives one answer" `Quick (fun () ->
        List.iter
          (fun level ->
            List.iter
              (fun (name, src) ->
                let what label =
                  Printf.sprintf "%s at %s: %s" name
                    (match level with
                    | Mira_codegen.Codegen.O0 -> "O0"
                    | O1 -> "O1"
                    | O2 -> "O2")
                    label
                in
                let batch ?cache text =
                  match
                    Batch.run ?cache ~level
                      [ { Batch.src_name = name; src_text = text } ]
                  with
                  | [ Ok a ], s -> (a.Batch.a_python, s)
                  | [ Error (_, d) ], _ ->
                      failf "%s" (what (Diag.to_string d))
                  | _ -> fail (what "unexpected batch shape")
                in
                let direct =
                  Mira.python_model (Mira.analyze ~level ~source_name:name src)
                in
                let cold, _ = batch src in
                let cache = Batch.create_cache () in
                ignore (batch ~cache src);
                (* a trailing newline misses the file tier but shifts no
                   line, so every function hits the function tier *)
                let assembled, s = batch ~cache (src ^ "\n") in
                check int (what "assembled") 1 s.Batch.st_assembled;
                check int (what "no function re-analyzed") 0
                  s.Batch.st_fn_analyzed;
                let watched =
                  match
                    Session.watch (Session.create ~level ()) ~path:name src
                  with
                  | Ok info -> info.Session.in_python
                  | Error d -> failf "%s" (what (Diag.to_string d))
                in
                List.iter
                  (fun (label, python) ->
                    check bool (what label) true (String.equal direct python))
                  [
                    ("cold Batch.run", cold);
                    ("assembled Batch.run", assembled);
                    ("Session.watch", watched);
                  ])
              Mira_corpus.Corpus.all)
          Mira_codegen.Codegen.[ O0; O1; O2 ]);
  ]

let () =
  Random.self_init ();
  Alcotest.run "incremental" [ ("incremental", incremental_tests) ]
