(* Command-line front-end for Mira.

   `mira analyze prog.mc --python`     generate the Python model
   `mira eval prog.mc -f foo -p n=100` evaluate a function's model
   `mira dot prog.mc --binary`         AST dumps (Figures 2 and 3)
   `mira compile/disasm`               the object-file path
   `mira coverage --corpus`            Table I
   `mira validate --app stream`        static vs dynamic comparison
   `mira corpus-dump DIR`              write the bundled corpus *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let level_conv =
  let parse = function
    | "O0" | "0" -> Ok Mira_codegen.Codegen.O0
    | "O1" | "1" -> Ok Mira_codegen.Codegen.O1
    | "O2" | "2" -> Ok Mira_codegen.Codegen.O2
    | s -> Error (`Msg (Printf.sprintf "unknown optimization level %S" s))
  in
  let print ppf = function
    | Mira_codegen.Codegen.O0 -> Format.pp_print_string ppf "O0"
    | Mira_codegen.Codegen.O1 -> Format.pp_print_string ppf "O1"
    | Mira_codegen.Codegen.O2 -> Format.pp_print_string ppf "O2"
  in
  Arg.conv (parse, print)

let level_arg =
  Arg.(
    value
    & opt level_conv Mira_codegen.Codegen.O1
    & info [ "O"; "level" ] ~docv:"LEVEL" ~doc:"Optimization level (O0, O1, O2).")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-C source file.")

let arch_conv =
  let parse = function
    | "arya" -> Ok Mira_arch.Archdesc.arya
    | "frankenstein" -> Ok Mira_arch.Archdesc.frankenstein
    | path when Sys.file_exists path -> (
        try Ok (Mira_arch.Archdesc.load path)
        with Mira_arch.Archdesc.Parse_error (m, l) ->
          Error (`Msg (Printf.sprintf "%s:%d: %s" path l m)))
    | s -> Error (`Msg (Printf.sprintf "unknown architecture %S" s))
  in
  let print ppf (a : Mira_arch.Archdesc.t) = Format.pp_print_string ppf a.name in
  Arg.conv (parse, print)

let arch_arg =
  Arg.(
    value
    & opt arch_conv Mira_arch.Archdesc.frankenstein
    & info [ "arch" ] ~docv:"ARCH"
        ~doc:"Architecture description: arya, frankenstein, or a file path.")

(* Documented exit codes (README "Robustness & limits"):
   0 success; 1 analysis failure (the input is at fault); 2 a budget,
   timeout or other resource limit was hit; 3 internal error (a bug in
   mira); 124 command-line usage error (cmdliner's convention). *)
let exit_analysis = 1
let exit_budget = 2
let exit_internal = 3

let handle_errors f =
  Printexc.record_backtrace true;
  try f () with
  | Mira_core.Model_eval.Missing_parameter (f, p) ->
      Printf.eprintf
        "error: function %s needs a value for parameter %s (use -p %s=...)\n" f
        p p;
      exit exit_analysis
  (* at the CLI a Failure/Invalid_argument usually means a bad argument
     (unknown function name, missing parameter), not a bug: report it
     plainly as an analysis failure, as before this exit-code scheme *)
  | Failure m | Invalid_argument m ->
      Printf.eprintf "error: %s\n" m;
      exit exit_analysis
  | e ->
      let diag = Mira_core.Diag.of_exn e in
      Printf.eprintf "%s\n" (Mira_core.Diag.to_string diag);
      (match diag.Mira_core.Diag.d_backtrace with
      | Some bt when diag.d_kind = Mira_core.Diag.Internal_error ->
          prerr_string bt
      | _ -> ());
      exit
        (match diag.Mira_core.Diag.d_kind with
        | Mira_core.Diag.Budget_exhausted | Mira_core.Diag.Timeout ->
            exit_budget
        | Mira_core.Diag.Internal_error -> exit_internal
        | _ -> exit_analysis)

(* ---------- parse ---------- *)

let parse_cmd =
  let run file =
    handle_errors (fun () ->
        let ast = Mira_srclang.Parser.parse (read_file file) in
        match Mira_srclang.Typecheck.check ast with
        | Ok () ->
            Printf.printf "%s: %d function(s), %d class(es), %d extern(s)\n"
              file
              (List.length ast.funcs)
              (List.length ast.classes)
              (List.length ast.externs);
            List.iter
              (fun (f : Mira_srclang.Ast.func) ->
                Printf.printf "  %s %s(%d args)\n"
                  (Mira_srclang.Ast.ty_to_string f.fret)
                  (Mira_srclang.Ast.mangle f)
                  (List.length f.fparams))
              (Mira_srclang.Ast.all_functions ast)
        | Error es ->
            List.iter
              (fun e ->
                Printf.eprintf "%s\n"
                  (Format.asprintf "%a" Mira_srclang.Typecheck.pp_error e))
              es;
            exit 1)
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and typecheck a mini-C source file.")
    Term.(const run $ file_arg)

(* ---------- dot ---------- *)

let dot_cmd =
  let run file binary level =
    handle_errors (fun () ->
        let m = Mira_core.Mira.analyze ~level ~source_name:file (read_file file) in
        print_string
          (if binary then Mira_core.Mira.binary_dot m
           else Mira_core.Mira.source_dot m))
  in
  let binary =
    Arg.(value & flag & info [ "binary" ] ~doc:"Dump the binary AST (Figure 3) instead of the source AST (Figure 2).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Graphviz rendering of the source or binary AST.")
    Term.(const run $ file_arg $ binary $ level_arg)

(* ---------- compile / disasm ---------- *)

let compile_cmd =
  let run file out level =
    handle_errors (fun () ->
        let obj = Mira_codegen.Codegen.compile_to_object ~level (read_file file) in
        write_file out obj;
        List.iter
          (fun (name, size) -> Printf.printf "%-14s %6d bytes\n" name size)
          (Mira_visa.Objfile.section_sizes obj))
  in
  let out =
    Arg.(value & opt string "a.mobj" & info [ "o" ] ~docv:"OUT" ~doc:"Output object file.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile mini-C to a virtual-ISA object file.")
    Term.(const run $ file_arg $ out $ level_arg)

let disasm_cmd =
  let run file =
    handle_errors (fun () ->
        let bast = Mira_visa.Binast.of_object (read_file file) in
        Format.printf "%a@." Mira_visa.Binast.pp bast)
  in
  let obj =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OBJ" ~doc:"Object file.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble an object file (binary AST listing).")
    Term.(const run $ obj)

(* ---------- analyze ---------- *)

let analyze_cmd =
  let run file python level =
    handle_errors (fun () ->
        let m = Mira_core.Mira.analyze ~level ~source_name:file (read_file file) in
        if python then print_string (Mira_core.Mira.python_model m)
        else begin
          Printf.printf "model for %s (%d function(s))\n" file
            (List.length m.model.functions);
          List.iter
            (fun (fm : Mira_core.Model_ir.fmodel) ->
              Printf.printf "  %s(%s)\n" fm.mf_name
                (String.concat ", " fm.mf_params))
            m.model.functions;
          match Mira_core.Mira.warnings m with
          | [] -> ()
          | ws ->
              print_endline "warnings:";
              List.iter (fun (f, w) -> Printf.printf "  [%s] %s\n" f w) ws
        end)
  in
  let python =
    Arg.(value & flag & info [ "python" ] ~doc:"Print the generated Python model (Figure 5).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Generate a performance model from mini-C source.")
    Term.(const run $ file_arg $ python $ level_arg)

(* ---------- eval ---------- *)

let params_arg =
  let kv_conv =
    let parse s =
      match String.index_opt s '=' with
      | Some i -> (
          let k = String.sub s 0 i in
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt v with
          | Some n -> Ok (k, n)
          | None -> Error (`Msg (Printf.sprintf "parameter %S is not an integer" s)))
      | None -> Error (`Msg (Printf.sprintf "expected name=value, got %S" s))
    in
    let print ppf (k, v) = Format.fprintf ppf "%s=%d" k v in
    Arg.conv (parse, print)
  in
  Arg.(value & opt_all kv_conv [] & info [ "p"; "param" ] ~docv:"NAME=VALUE" ~doc:"Model parameter binding (repeatable).")

let eval_cmd =
  let run file fname env arch level via_python =
    handle_errors (fun () ->
        let m = Mira_core.Mira.analyze ~level ~source_name:file (read_file file) in
        let counts =
          if via_python then begin
            (* evaluate the emitted Python artifact itself, through the
               bundled mini-Python interpreter *)
            let call = Mira_minipy.Minipy.run (Mira_core.Mira.python_model m) in
            let fm = Mira_core.Model_ir.find_exn m.model fname in
            let args =
              List.map
                (fun p ->
                  match List.assoc_opt p env with
                  | Some v -> Mira_minipy.Minipy.Int v
                  | None ->
                      Printf.eprintf
                        "error: parameter %s required (use -p %s=...)\n" p p;
                      exit 1)
                fm.mf_params
            in
            Mira_minipy.Minipy.dict_counts
              (call (Mira_core.Model_ir.python_name fm, args))
          end
          else Mira_core.Mira.counts m ~fname ~env
        in
        print_string (Mira_core.Report.table2 arch counts);
        Printf.printf "\nFP instructions (FP_INS): %s\n"
          (Mira_core.Report.scientific (Mira_core.Model_eval.fpi counts));
        Printf.printf "arithmetic intensity:     %.3f\n"
          (Mira_core.Report.arithmetic_intensity arch counts);
        Printf.printf "roofline estimate:        %.1f GFLOP/s attainable on %s\n"
          (Mira_core.Report.roofline_gflops arch counts)
          arch.name)
  in
  let fname =
    Arg.(required & opt (some string) None & info [ "f"; "function" ] ~docv:"FN" ~doc:"Function to evaluate (mangled name).")
  in
  let via_python =
    Arg.(value & flag & info [ "via-python" ] ~doc:"Evaluate by executing the emitted Python model in the bundled interpreter instead of the internal evaluator.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a generated model and print categorized counts (Table II).")
    Term.(const run $ file_arg $ fname $ params_arg $ arch_arg $ level_arg $ via_python)

(* ---------- predict ---------- *)

let predict_cmd =
  let run file fname env archs level =
    handle_errors (fun () ->
        let m = Mira_core.Mira.analyze ~level ~source_name:file (read_file file) in
        let counts = Mira_core.Mira.counts m ~fname ~env in
        let archs =
          if archs = [] then
            [ Mira_arch.Archdesc.arya; Mira_arch.Archdesc.frankenstein ]
          else archs
        in
        let ranked = Mira_core.Predict.compare_architectures archs counts in
        List.iteri
          (fun i (_, p) ->
            if i > 0 then print_newline ();
            print_endline (Mira_core.Predict.to_string p))
          ranked;
        match ranked with
        | (best, pb) :: (_ :: _ as rest) ->
            let worst, pw = List.nth rest (List.length rest - 1) in
            Printf.printf "\n%s is %.2fx faster than %s for this workload\n"
              best (pw.Mira_core.Predict.seconds /. pb.Mira_core.Predict.seconds) worst
        | _ -> ())
  in
  let fname =
    Arg.(required & opt (some string) None & info [ "f"; "function" ] ~docv:"FN" ~doc:"Function to predict (mangled name).")
  in
  let archs =
    Arg.(value & opt_all arch_conv [] & info [ "arch" ] ~docv:"ARCH" ~doc:"Architecture(s) to compare (repeatable; default: arya and frankenstein).")
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Predict time/throughput on one or more architectures (section III-C6).")
    Term.(const run $ file_arg $ fname $ params_arg $ archs $ level_arg)

(* ---------- profile ---------- *)

let profile_cmd =
  let run app =
    handle_errors (fun () ->
        let vm =
          match app with
          | "stream" -> Mira_corpus.Corpus.run_stream ~n:200_000 ~ntimes:10
          | "dgemm" -> Mira_corpus.Corpus.run_dgemm ~n:96
          | "minife" ->
              (Mira_corpus.Corpus.run_minife ~nx:10 ~ny:10 ~nz:10 ~max_iter:30)
                .vm
          | other ->
              Printf.eprintf "unknown app %S (stream, dgemm, minife)\n" other;
              exit 1
        in
        Printf.printf "%-22s %8s %14s %14s %12s\n" "function" "calls"
          "incl. instrs" "self instrs" "incl. FPI";
        List.iter
          (fun (name, (p : Mira_vm.Vm.profile)) ->
            let total sel =
              List.fold_left (fun a (_, c) -> a + c) 0 sel
            in
            let fpi =
              List.fold_left
                (fun a mn -> a + Mira_vm.Vm.count_of p mn)
                0 Mira_core.Model_eval.fp_mnemonics
            in
            Printf.printf "%-22s %8d %14d %14d %12d\n" name p.calls
              (total p.inclusive) (total p.exclusive) fpi)
          (Mira_vm.Vm.profiles vm))
  in
  let app_arg =
    Arg.(value & opt string "minife" & info [ "app" ] ~docv:"APP" ~doc:"Workload: stream, dgemm or minife.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Run a corpus workload in the VM and print a TAU-style profile.")
    Term.(const run $ app_arg)

(* ---------- coverage ---------- *)

let coverage_cmd =
  let run files use_corpus =
    handle_errors (fun () ->
        let sources =
          if use_corpus then Mira_corpus.Corpus.all
          else
            List.map (fun f -> (Filename.remove_extension (Filename.basename f), read_file f)) files
        in
        let rows =
          List.map
            (fun (name, src) ->
              Mira_core.Coverage.of_program ~name (Mira_srclang.Parser.parse src))
            sources
        in
        print_string (Mira_core.Coverage.table rows))
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILES" ~doc:"mini-C sources.")
  in
  let use_corpus =
    Arg.(value & flag & info [ "corpus" ] ~doc:"Analyze the bundled corpus (Table I).")
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Loop-coverage survey of programs (Table I).")
    Term.(const run $ files $ use_corpus)

(* ---------- validate ---------- *)

let validate_cmd =
  let run app arch =
    handle_errors (fun () ->
        let report name fname env vm =
          let src = Option.get (Mira_corpus.Corpus.find name) in
          let m = Mira_core.Mira.analyze ~source_name:name src in
          let static = Mira_core.Mira.fpi m ~fname ~env in
          match Mira_baselines.Tau.measure ~arch vm "FP_INS" fname with
          | Error e ->
              Format.printf "%s %s: static FPI = %s; dynamic: %a@." name fname
                (Mira_core.Report.scientific static)
                Mira_baselines.Tau.pp_error e
          | Ok meas ->
              let err =
                if meas.per_call = 0.0 then 0.0
                else
                  Float.abs (meas.per_call -. static) /. meas.per_call *. 100.0
              in
              Format.printf "%-10s %-18s TAU %-12s Mira %-12s error %.2f%%@."
                name fname
                (Mira_core.Report.scientific meas.per_call)
                (Mira_core.Report.scientific static)
                err
        in
        match app with
        | "stream" ->
            let n = 500_000 and ntimes = 10 in
            let vm = Mira_corpus.Corpus.run_stream ~n ~ntimes in
            report "stream" "stream_driver" [ ("n", n); ("ntimes", ntimes) ] vm
        | "dgemm" ->
            let n = 96 in
            let vm = Mira_corpus.Corpus.run_dgemm ~n in
            report "dgemm" "dgemm" [ ("n", n) ] vm
        | "minife" ->
            let nx, ny, nz = (10, 10, 10) in
            let max_iter = 30 in
            let run = Mira_corpus.Corpus.run_minife ~nx ~ny ~nz ~max_iter in
            let nrows = run.nrows in
            report "minife" "waxpby" [ ("n", nrows) ] run.vm;
            report "minife" "matvec_std::apply" [ ("nrows", nrows) ] run.vm;
            report "minife" "cg_solve"
              [ ("nrows", nrows); ("max_iter", max_iter) ]
              run.vm
        | other ->
            Printf.eprintf "unknown app %S (stream, dgemm, minife)\n" other;
            exit 1)
  in
  let app_arg =
    Arg.(value & opt string "stream" & info [ "app" ] ~docv:"APP" ~doc:"Workload: stream, dgemm or minife.")
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Compare static predictions with dynamic measurement (Tables III-V).")
    Term.(const run $ app_arg $ arch_arg)

(* ---------- shared option set (batch / serve / client / eval-sweep) ----------

   One definition per flag: every subcommand that touches the cache,
   the limits, the fault schedule or a daemon endpoint gets identical
   names, docs and defaults from this single source. *)

module Opts = struct
  let faults_conv =
    let parse s =
      match Mira_core.Faults.parse s with
      | Ok f -> Ok f
      | Error m -> Error (`Msg m)
    in
    let print ppf f =
      Format.pp_print_string ppf (Mira_core.Faults.to_string f)
    in
    Arg.conv (parse, print)

  let faults =
    Arg.(
      value & opt (some faults_conv) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection, e.g. \
             seed=42,read=0.3,corrupt=0.2,worker=0.1,slow=0.5,slow_ms=20, \
             including the wire sites net_write and disconnect, which fire \
             identically over Unix and TCP transports (testing only; \
             decisions are scheduling-independent).")

  (* cache: --cache / --cache-dir / --cache-max-mb *)

  let use_cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Memoize analyses content-addressed on disk (reused across runs \
             and, under $(b,mira serve), kept warm across requests).")

  let cache_dir =
    Arg.(
      value & opt string ".mira-cache"
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"On-disk cache directory.")

  let cache_max_mb =
    Arg.(
      value & opt (some int) None
      & info [ "cache-max-mb" ] ~docv:"MB"
          ~doc:
            "Evict least-recently-used disk-cache entries after the run (on \
             shutdown, for a daemon) until the directory is under this size \
             (implies $(b,--cache)).")

  (* a size cap only makes sense with a cache, so asking for one turns
     the cache on rather than being silently ignored *)
  let cache_term =
    let make use dir mb =
      let use = use || mb <> None in
      ( (if use then Some (Mira_core.Batch.create_cache ~dir ()) else None),
        mb )
    in
    Term.(const make $ use_cache $ cache_dir $ cache_max_mb)

  (* evict after the run so this run's own entries participate in the
     LRU ordering *)
  let gc_cache = function
    | Some c, Some mb ->
        ignore (Mira_core.Batch.gc_disk ~max_bytes:(mb * 1024 * 1024) c)
    | _ -> ()

  (* limits: --fuel / --timeout-ms / --max-depth / --retries *)

  let fuel =
    Arg.(
      value & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Per-request work budget (tokens, statements, domain pieces); \
             exhaustion becomes a diagnostic for that source (exit code 2). \
             A daemon treats its own value as a ceiling: requests may \
             tighten it but never exceed it.")

  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wall-clock deadline; an overrun becomes a timeout \
             diagnostic for that source (exit code 2).  A daemon treats its \
             own value as a ceiling: requests may tighten it but never \
             exceed it.")

  let depth =
    Arg.(
      value & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Per-request recursion-depth cap (default 10000).")

  let retries =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Disk-cache I/O retry attempts after the first, with bounded \
             exponential backoff (default 2).")

  let limits_term =
    let make fuel timeout_ms depth retries =
      {
        Mira_core.Limits.fuel;
        depth = Option.value depth ~default:Mira_core.Limits.default.depth;
        timeout_ms;
        retries =
          Option.value retries ~default:Mira_core.Limits.default.retries;
      }
    in
    Term.(const make $ fuel $ timeout_ms $ depth $ retries)

  (* the same flags, as a client-side budget request (clamped by the
     daemon's ceiling; --retries is a disk-cache knob, not a wire one) *)
  let budget_term =
    let make fuel timeout_ms depth =
      { Mira_core.Serve.rq_fuel = fuel; rq_timeout_ms = timeout_ms;
        rq_depth = depth }
    in
    Term.(const make $ fuel $ timeout_ms $ depth)

  (* endpoints: --endpoint (with --socket as unix shorthand) *)

  let endpoint_conv =
    let parse s =
      match Mira_core.Endpoint.parse s with
      | Ok e -> Ok e
      | Error m -> Error (`Msg m)
    in
    let print ppf e =
      Format.pp_print_string ppf (Mira_core.Endpoint.to_string e)
    in
    Arg.conv (parse, print)

  let endpoints_term =
    let eps =
      Arg.(
        value
        & opt_all endpoint_conv []
        & info [ "e"; "endpoint" ] ~docv:"ENDPOINT"
            ~doc:
              "Daemon endpoint, $(i,unix:PATH) or $(i,tcp:HOST:PORT) \
               (repeatable; a bare path means $(i,unix:); port 0 asks the \
               OS for an ephemeral port when serving).")
    in
    let socket =
      Arg.(
        value
        & opt (some string) None
        & info [ "socket" ] ~docv:"PATH"
            ~doc:
              "Unix-domain socket path — shorthand for $(b,--endpoint) \
               $(i,unix:PATH).")
    in
    let make eps socket =
      match
        (match socket with
        | Some s -> Mira_core.Endpoint.Unix_sock s :: eps
        | None -> eps)
      with
      | [] -> [ Mira_core.Endpoint.Unix_sock "mira.sock" ]
      | eps -> eps
    in
    Term.(const make $ eps $ socket)

  let io_timeout_ms =
    Arg.(
      value & opt int 30_000
      & info [ "io-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Client-side timeout covering connect, every write and the \
             per-request response deadline: a wedged or stalled daemon \
             becomes a clean error exit instead of a hung client.  A \
             streamed $(b,reanalyze) has no deadline; after this much \
             silence it pings the daemon, and a second silent interval is \
             the error.  0 disables.")

  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"K"
          ~doc:
            "Requests kept in flight per daemon connection: tagged with \
             $(i,id=), answered possibly out of order, and re-associated by \
             the tag.")

  let no_fsync =
    Arg.(
      value & flag
      & info [ "no-fsync" ]
          ~doc:
            "Skip the fsync-before-rename durability protocol on cache \
             publishes (benchmarking escape hatch): a machine crash can \
             then leave a published cache name over torn bytes, detected \
             and quarantined at next startup rather than prevented.")

  let apply_fsync no_fsync =
    if no_fsync then Mira_core.Batch.set_fsync false

  let auth_secret_file =
    Arg.(
      value & opt (some file) None
      & info [ "auth-secret-file" ] ~docv:"FILE"
          ~doc:
            "Shared secret for frame authentication (file contents, trailing \
             newline stripped).  Every frame sent is sealed with an \
             $(i,auth=) HMAC-SHA256 over the payload and every frame \
             received must verify.  A daemon with a secret $(b,requires) \
             authentication on $(i,tcp:) endpoints (optional on $(i,unix:), \
             but verified when present); see docs/PROTOCOL.md.")

  let load_auth_secret = function
    | None -> None
    | Some path -> (
        match Mira_core.Auth.read_secret_file path with
        | Ok s -> Some s
        | Error m ->
            Printf.eprintf "error: --auth-secret-file: %s\n" m;
            exit 124)
end

(* ---------- batch ---------- *)

(* shared output-format selector: the JSON schema is pinned in
   docs/PROTOCOL.md ("JSON output") and by test_json.ml *)
let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(i,text) (human-readable, the default) or \
           $(i,json) (the stable machine-readable schema of \
           docs/PROTOCOL.md).")

let batch_cmd =
  let run paths jobs cache python level limits faults shard no_fsync format =
    handle_errors (fun () ->
        Opts.apply_fsync no_fsync;
        let expanded =
          try Mira_core.Batch.expand_paths paths
          with Sys_error m ->
            Printf.eprintf "error: %s\n" m;
            exit exit_analysis
        in
        if expanded = [] then begin
          Printf.eprintf "error: no .mc sources found\n";
          exit exit_analysis
        end;
        let selected =
          match shard with
          | None -> expanded
          | Some (index, count) ->
              List.filter
                (Mira_core.Batch.shard_member ~index ~count)
                expanded
        in
        (if selected = [] then
           (* an empty shard is a successful no-op: its siblings hold
              every path, so k sharded runs still cover the whole set *)
           match shard with
           | Some (index, count) ->
               Printf.printf
                 "batch: shard %d/%d holds none of the %d source(s)\n" index
                 count (List.length expanded);
               exit 0
           | None -> assert false);
        let sources =
          try List.map Mira_core.Batch.source_of_file selected
          with Sys_error m ->
            Printf.eprintf "error: %s\n" m;
            exit exit_analysis
        in
        let results, stats =
          Mira_core.Batch.run ~jobs ?cache:(fst cache) ~level ~limits ?faults
            sources
        in
        Opts.gc_cache cache;
        (match format with
        | `Json ->
            print_endline
              (Mira_core.Json.to_string (Mira_core.Json.of_batch results stats))
        | `Text ->
            if python then
              List.iter
                (function
                  | Ok (a : Mira_core.Batch.analysis) -> print_string a.a_python
                  | Error (name, diag) ->
                      Printf.eprintf "%s: FAILED: %s\n" name
                        (Mira_core.Diag.to_string diag))
                results
            else print_string (Mira_core.Batch.report results stats));
        (* budget/timeout overruns outrank plain analysis failures so a
           driver can tell "your corpus is slow" from "your corpus is
           broken" without parsing the report *)
        if stats.st_budget > 0 then exit exit_budget
        else if stats.st_failed > 0 then exit exit_analysis)
  in
  let paths =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PATHS"
          ~doc:"mini-C source files and/or directories of .mc files.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains to analyze with.")
  in
  let python =
    Arg.(
      value & flag
      & info [ "python" ]
          ~doc:"Print every generated Python model instead of the batch report.")
  in
  let shard =
    let shard_conv =
      let parse s =
        let bad () =
          Error
            (`Msg
               (Printf.sprintf "bad shard %S (expected I/K with 1 <= I <= K)"
                  s))
        in
        match String.index_opt s '/' with
        | None -> bad ()
        | Some i -> (
            match
              ( int_of_string_opt (String.sub s 0 i),
                int_of_string_opt
                  (String.sub s (i + 1) (String.length s - i - 1)) )
            with
            | Some index, Some count
              when count >= 1 && index >= 1 && index <= count ->
                Ok (index, count)
            | _ -> bad ())
      in
      let print ppf (i, k) = Format.fprintf ppf "%d/%d" i k in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"I/K"
          ~doc:
            "Process only shard $(i,I) of $(i,K): membership is a stable \
             hash of each expanded source path, so $(i,K) processes run \
             with $(b,--shard) $(i,1/K) .. $(i,K/K) over the same inputs \
             partition the set exactly — every source analyzed by one \
             shard, none by two.  Point the shards at per-shard \
             $(b,--cache-dir)s and union them afterwards with $(b,mira \
             cache merge).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze many sources concurrently with memoization (deterministic: \
          output is byte-identical for any --jobs and cache state).")
    Term.(
      const run $ paths $ jobs $ Opts.cache_term $ python $ level_arg
      $ Opts.limits_term $ Opts.faults $ shard $ Opts.no_fsync $ format_arg)

(* ---------- cache ---------- *)

let cache_merge_cmd =
  let run dst srcs no_fsync =
    handle_errors (fun () ->
        Opts.apply_fsync no_fsync;
        let st = Mira_core.Batch.merge_dirs ~dst srcs in
        Printf.printf
          "cache merge: %d entries scanned, %d copied, %d already present, \
           %d corrupt skipped, %d failed\n"
          st.Mira_core.Batch.mg_scanned st.mg_copied st.mg_present
          st.mg_corrupt st.mg_failed;
        if st.mg_failed > 0 then exit exit_internal)
  in
  let dst =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DST"
          ~doc:"Destination cache directory (created if missing).")
  in
  let srcs =
    Arg.(
      non_empty & pos_right 0 dir []
      & info [] ~docv:"SRC" ~doc:"Source cache directories to union in.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Union source cache directories into DST.  Entries are \
          content-addressed, so a filename already present in DST is the \
          same payload and is skipped; everything copied is \
          checksum-verified first and published atomically under the \
          shared cache lock, safe against a daemon serving from DST \
          concurrently.  A batch over the union of sharded inputs then \
          runs entirely warm against DST.  Exit 3 only on I/O failure; \
          corrupt source entries are counted and skipped.")
    Term.(const run $ dst $ srcs $ Opts.no_fsync)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Operate on on-disk analysis caches (see $(b,mira batch --cache)).")
    [ cache_merge_cmd ]

(* ---------- serve / client / eval-sweep ---------- *)

let serve_cmd =
  let run endpoints max_inflight max_pipeline max_frame_bytes idle_timeout_ms
      drain_ms workers cache level limits faults auth_secret_file no_fsync =
    handle_errors (fun () ->
        Opts.apply_fsync no_fsync;
        let cfg =
          {
            (Mira_core.Serve.default_config_endpoints ~endpoints) with
            cfg_max_inflight = max 1 max_inflight;
            cfg_max_pipeline = max 1 max_pipeline;
            cfg_max_frame_bytes = max 1024 max_frame_bytes;
            cfg_idle_timeout_ms = idle_timeout_ms;
            cfg_drain_ms = drain_ms;
            cfg_workers = max 1 workers;
            cfg_level = level;
            cfg_limits = limits;
            cfg_cache = fst cache;
            cfg_faults = faults;
            cfg_auth_secret = Opts.load_auth_secret auth_secret_file;
          }
        in
        let server = Mira_core.Serve.create cfg in
        (* graceful shutdown: drain in-flight requests, then exit 0 *)
        List.iter
          (fun s ->
            Sys.set_signal s
              (Sys.Signal_handle (fun _ -> Mira_core.Serve.stop server)))
          [ Sys.sigterm; Sys.sigint ];
        (* the ready lines are the startup handshake scripts wait for; a
           tcp:HOST:0 endpoint is printed with its OS-assigned port, which
           is the only place that port is advertised *)
        List.iter
          (fun ep ->
            Printf.printf "mira serve: listening on %s\n%!"
              (Mira_core.Endpoint.to_string ep))
          (Mira_core.Serve.bound_endpoints server);
        let stats = Mira_core.Serve.serve server in
        Opts.gc_cache cache;
        Printf.printf
          "mira serve: drained; %d served, %d failed, %d shed, %d protocol \
           error(s), in-flight high-water %d\n"
          stats.Mira_core.Serve.sv_served stats.sv_failed stats.sv_shed
          stats.sv_protocol_errors stats.sv_inflight_hwm)
  in
  let max_inflight =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Connections served concurrently; beyond this, new connections \
             are shed with an $(i,overloaded) frame (bounded memory under \
             any offered load).")
  in
  let max_pipeline =
    Arg.(
      value & opt int 8
      & info [ "max-pipeline" ] ~docv:"N"
          ~doc:
            "Tagged ($(i,id=)) requests dispatched concurrently per \
             connection; beyond this the connection's reader stops \
             consuming, backpressuring the socket.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:"Largest accepted request payload; bigger frames are rejected.")
  in
  let idle_timeout_ms =
    Arg.(
      value & opt int 30_000
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-read/write socket timeout; stalled (slow-loris) clients are \
             disconnected.  0 disables.")
  in
  let drain_ms =
    Arg.(
      value & opt int 2_000
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:
            "Hard deadline for the graceful drain on SIGTERM/SIGINT/shutdown.")
  in
  let workers =
    Arg.(
      value & opt int 8
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker threads.  Every request but ping, health, stats and \
             shutdown runs on this fixed pool; those four are answered by \
             the event loop itself, and connections cost a descriptor, not \
             a thread.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: a long-lived process serving \
          analyze/eval/stats/ping over Unix-domain and/or TCP endpoints \
          (repeat $(b,--endpoint) to listen on several), with pipelined \
          requests, the batch cache kept warm, per-request budgets, bounded \
          admission, and graceful drain on SIGTERM.")
    Term.(
      const run $ Opts.endpoints_term $ max_inflight $ max_pipeline
      $ max_frame_bytes $ idle_timeout_ms $ drain_ms $ workers
      $ Opts.cache_term $ level_arg $ Opts.limits_term
      $ Opts.faults $ Opts.auth_secret_file $ Opts.no_fsync)

(* The exit code a response maps to: the one status-to-exit mapping,
   shared by text and JSON rendering and by eval-sweep.  Its order is
   the taxonomy's: transport/internal (3) > budget (2) > analysis (1).
   A shed connection is a transport failure: the pool never returns
   the daemon's overloaded frame. *)
let response_code = function
  | Error _ -> exit_internal
  | Ok resp -> (
      match resp.Mira_core.Serve.rs_status with
      | "ok" -> 0
      | "error" -> (
          match Mira_core.Serve.field resp "code" with
          | Some ("budget" | "timeout") -> exit_budget
          | Some "internal" -> exit_internal
          | _ -> exit_analysis)
      | _ -> exit_internal)

(* shared response rendering for the pooled clients: print one response
   (body to stdout, diagnostics to stderr) and return its exit code *)
let render_response r =
  (match r with
  | Error m -> Printf.eprintf "error: %s\n" m
  | Ok resp -> (
      let field = Mira_core.Serve.field resp in
      let print_fields keys =
        List.iter
          (fun k ->
            match field k with
            | Some v -> Printf.printf "%s=%s\n" k v
            | None -> ())
          keys
      in
      match resp.Mira_core.Serve.rs_status with
      | "ok" ->
          List.iter
            (fun (k, v) ->
              if k = "warning" then Printf.eprintf "warning: %s\n" v)
            resp.rs_fields;
          if resp.rs_body <> "" then begin
            print_string resp.rs_body;
            (* eval carries its headline numbers as fields; stats carries
               the compiled-evaluator counters there too (the body's key
               list is pinned wire shape, see docs/PROTOCOL.md) *)
            print_fields
              [ "fpi"; "total"; "compile-hits"; "compile-misses";
                "compile-fallbacks" ]
          end
          else if field "pong" <> None then print_endline "pong"
          else if field "state" <> None then
            (* a health response: its payload is all fields *)
            print_fields
              [ "state"; "inflight"; "max-inflight"; "workers"; "served";
                "failed" ]
          else print_endline "ok"
      | "error" ->
          Printf.eprintf "error: %s\n"
            (Option.value (field "message") ~default:"unknown error")
      | other -> Printf.eprintf "error: unknown response status %S\n" other));
  response_code r

(* JSON rendering of one wire response: status, fields in wire order
   (keys repeat), and the body — spliced verbatim when it is itself
   JSON (watch/reanalyze frames), escaped as a string otherwise *)
let response_json r =
  let open Mira_core.Json in
  match r with
  | Error m -> Obj [ ("status", Str "transport-error"); ("message", Str m) ]
  | Ok resp ->
      let body =
        if resp.Mira_core.Serve.rs_body = "" then Null
        else if resp.rs_body.[0] = '{' || resp.rs_body.[0] = '[' then
          Raw resp.rs_body
        else Str resp.rs_body
      in
      Obj
        [
          ("status", Str resp.rs_status);
          ( "fields",
            Arr
              (List.map
                 (fun (k, v) -> Obj [ ("key", Str k); ("value", Str v) ])
                 resp.rs_fields) );
          ("body", body);
        ]

let render_response_json r =
  print_endline (Mira_core.Json.to_string (response_json r));
  response_code r

let client_cmd =
  let run endpoints verb file fname params budget io_timeout_ms pipeline
      auth_secret_file format =
    handle_errors (fun () ->
        let need_file () =
          match file with
          | Some f -> f
          | None ->
              Printf.eprintf "error: %s needs a FILE argument\n" verb;
              exit 124
        in
        let render =
          match format with
          | `Json -> render_response_json
          | `Text -> render_response
        in
        let req =
          match verb with
          | "ping" -> Mira_core.Serve.Ping
          | "stats" -> Mira_core.Serve.Stats
          | "health" -> Mira_core.Serve.Health
          | "shutdown" -> Mira_core.Serve.Shutdown
          | "analyze" ->
              let f = need_file () in
              Mira_core.Serve.Analyze
                {
                  an_name = Filename.basename f;
                  an_source = read_file f;
                  an_budget = budget;
                }
          | "eval" -> (
              let f = need_file () in
              match fname with
              | None ->
                  Printf.eprintf "error: eval needs -f FUNCTION\n";
                  exit 124
              | Some fn ->
                  Mira_core.Serve.Eval
                    {
                      ev_name = Filename.basename f;
                      ev_source = read_file f;
                      ev_function = fn;
                      ev_params = params;
                      ev_budget = budget;
                    })
          (* the session verbs ship the text when the file is readable
             client-side and fall back to a daemon-side read (empty
             body) otherwise — the shared-filesystem deployment *)
          | "watch" ->
              let f = need_file () in
              Mira_core.Serve.Watch
                {
                  wt_path = f;
                  wt_source = (if Sys.file_exists f then read_file f else "");
                }
          | "reanalyze" ->
              let f = need_file () in
              Mira_core.Serve.Reanalyze
                {
                  rz_path = f;
                  rz_source = (if Sys.file_exists f then read_file f else "");
                }
          | "forget" -> Mira_core.Serve.Forget { fg_path = need_file () }
          | other ->
              Printf.eprintf
                "error: unknown request %S (ping, stats, health, analyze, \
                 eval, watch, reanalyze, forget, shutdown)\n"
                other;
              exit 124
        in
        (* reanalyze streams one frame per invalidated function plus a
           terminal frame, printed as they arrive, from one daemon's
           session.  A slow recomputation is not a dead daemon: the
           stream pings after [io_timeout_ms] of silence instead of
           timing out *)
        let streamed =
          match req with Mira_core.Serve.Reanalyze _ -> true | _ -> false
        in
        if streamed && List.length endpoints <> 1 then begin
          Printf.eprintf
            "error: reanalyze streams over a single connection; give exactly \
             one --endpoint\n";
          exit 124
        end;
        let pipeline = max 1 pipeline in
        let worst = ref 0 in
        let render r = worst := max !worst (render r) in
        Mira_core.Client.with_pool ~io_timeout_ms ~max_inflight:pipeline
          ?auth_secret:(Opts.load_auth_secret auth_secret_file) endpoints
          (fun pool ->
            if streamed then (
              match
                Mira_core.Client.stream ~deadline_ms:0
                  ~heartbeat_ms:io_timeout_ms pool req (fun resp ->
                    render (Ok resp);
                    if
                      Mira_core.Serve.field resp "reanalyze-done" = Some "1"
                      || resp.rs_status <> "ok"
                         && Mira_core.Serve.field resp "binding" = None
                    then `Done
                    else `More)
              with
              | Ok () -> ()
              | Error m -> render (Error m))
            else if pipeline = 1 then render (Mira_core.Client.request pool req)
            else
              List.iter render
                (Mira_core.Client.sweep pool (List.init pipeline (fun _ -> req))));
        if !worst <> 0 then exit !worst)
  in
  let verb =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            "One of ping, stats, health, analyze, eval, watch, reanalyze, \
             forget, shutdown.")
  in
  let file =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "mini-C source (analyze, eval, watch, reanalyze) or watched \
             path (forget).")
  in
  let fname =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "function" ] ~docv:"FN"
          ~doc:"Function to evaluate (mangled name).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send a request to running $(b,mira serve) daemon(s) through the \
          connection pool (repeat $(b,--endpoint) to spread load; \
          $(b,--pipeline) $(i,K) sends the request K times down one \
          connection and prints the answers in request order).")
    Term.(
      const run $ Opts.endpoints_term $ verb $ file $ fname $ params_arg
      $ Opts.budget_term $ Opts.io_timeout_ms $ Opts.pipeline
      $ Opts.auth_secret_file $ format_arg)

(* ---------- watch ---------- *)

let watch_cmd =
  let run paths level limits poll_ms once check format =
    handle_errors (fun () ->
        let json = format = `Json in
        let session = Mira_core.Session.create ~level ~limits () in
        let worst = ref 0 in
        let emit_json obj =
          print_endline (Mira_core.Json.to_string obj);
          flush stdout
        in
        let report_diag path (d : Mira_core.Diag.t) =
          worst := max !worst exit_analysis;
          if json then
            emit_json
              (Mira_core.Json.Obj
                 [
                   ("event", Mira_core.Json.Str "error");
                   ("path", Mira_core.Json.Str path);
                   ("diag", Mira_core.Json.of_diag d);
                 ])
          else
            Printf.eprintf "%s\n"
              (Mira_core.Diag.to_editor_string ~file:path d)
        in
        (* remembered text per path: an mtime tick only becomes a
           reanalyze when the bytes really moved, so editors that
           touch without writing stay quiet *)
        let texts : (string, string) Hashtbl.t = Hashtbl.create 16 in
        let mtimes : (string, float) Hashtbl.t = Hashtbl.create 16 in
        let mtime p = try (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> 0.0 in
        let do_watch path =
          let text = read_file path in
          Hashtbl.replace texts path text;
          Hashtbl.replace mtimes path (mtime path);
          match Mira_core.Session.watch session ~path text with
          | Error d -> report_diag path d
          | Ok info ->
              if json then
                emit_json
                  (Mira_core.Json.Obj
                     [
                       ("event", Mira_core.Json.Str "watch");
                       ("path", Mira_core.Json.Str path);
                       ( "functions",
                         Mira_core.Json.Int
                           (List.length info.Mira_core.Session.in_functions) );
                     ])
              else
                Printf.printf "watch %s: %d function(s)\n%!" path
                  (List.length info.Mira_core.Session.in_functions)
        in
        (* --check: every touched model must match a cold whole-file
           analysis of the file's current text, byte for byte *)
        let check_models (upd : Mira_core.Session.update) =
          List.iter
            (fun (path, model) ->
              let text =
                Option.value
                  (Mira_core.Session.source session ~path)
                  ~default:""
              in
              let cold, _ =
                Mira_core.Batch.run ~jobs:1 ~level ~limits
                  [ { Mira_core.Batch.src_name = path; src_text = text } ]
              in
              match cold with
              | [ Ok a ]
                when a.Mira_core.Batch.a_python
                     = Mira_core.Python_emit.emit model ->
                  ()
              | _ ->
                  Printf.eprintf
                    "error: %s: warm model diverges from cold analysis\n" path;
                  exit exit_internal)
            upd.Mira_core.Session.up_models
        in
        let do_reanalyze path =
          let text = read_file path in
          Hashtbl.replace texts path text;
          Hashtbl.replace mtimes path (mtime path);
          match Mira_core.Session.reanalyze session ~path text with
          | Error d -> report_diag path d
          | Ok upd ->
              if check then check_models upd;
              if json then
                emit_json
                  (Mira_core.Json.Obj
                     [
                       ("event", Mira_core.Json.Str "reanalyze");
                       ("path", Mira_core.Json.Str path);
                       ( "invalidated",
                         Mira_core.Json.Arr
                           (List.map
                              (fun (iv : Mira_core.Session.inval) ->
                                Mira_core.Json.Obj
                                  [
                                    ("file", Mira_core.Json.Str iv.iv_file);
                                    ( "function",
                                      Mira_core.Json.Str iv.iv_func );
                                    ( "reason",
                                      Mira_core.Json.Str
                                        (Mira_core.Session.reason_to_string
                                           iv.iv_reason) );
                                  ])
                              upd.Mira_core.Session.up_invalidated) );
                       ( "recomputed",
                         Mira_core.Json.Int upd.Mira_core.Session.up_recomputed
                       );
                       ( "cross_files",
                         Mira_core.Json.Arr
                           (List.map
                              (fun f -> Mira_core.Json.Str f)
                              upd.Mira_core.Session.up_cross_files) );
                       ( "deleted",
                         Mira_core.Json.Arr
                           (List.map
                              (fun f -> Mira_core.Json.Str f)
                              upd.Mira_core.Session.up_deleted) );
                       ( "clean",
                         Mira_core.Json.Bool upd.Mira_core.Session.up_clean );
                     ])
              else begin
                Printf.printf
                  "reanalyze %s: invalidated=%d recomputed=%d cross-files=%d \
                   deleted=%d clean=%d\n"
                  path
                  (List.length upd.Mira_core.Session.up_invalidated)
                  upd.Mira_core.Session.up_recomputed
                  (List.length upd.Mira_core.Session.up_cross_files)
                  (List.length upd.Mira_core.Session.up_deleted)
                  (if upd.Mira_core.Session.up_clean then 1 else 0);
                List.iter
                  (fun (iv : Mira_core.Session.inval) ->
                    Printf.printf "  %s %s (%s)\n" iv.iv_file iv.iv_func
                      (Mira_core.Session.reason_to_string iv.iv_reason))
                  upd.Mira_core.Session.up_invalidated;
                flush stdout
              end
        in
        List.iter do_watch paths;
        (* one polling pass: reanalyze every watched file whose bytes
           changed since last look *)
        let poll_once () =
          List.iter
            (fun path ->
              if Sys.file_exists path then
                let m = mtime path in
                if
                  Some m <> Hashtbl.find_opt mtimes path
                  && Some (read_file path) <> Hashtbl.find_opt texts path
                then do_reanalyze path
                else Hashtbl.replace mtimes path m)
            (Mira_core.Session.paths session)
        in
        if once then poll_once ()
        else begin
          (* event loop: edits arrive as mtime ticks or as explicit
             stdin command lines (reanalyze/watch/forget/quit) —
             inotify-free, so it runs anywhere *)
          let stdin_open = ref true in
          let quit = ref false in
          while not !quit do
            let readable, _, _ =
              if !stdin_open then
                Unix.select [ Unix.stdin ] [] []
                  (float_of_int (max 10 poll_ms) /. 1000.0)
              else begin
                Unix.sleepf (float_of_int (max 10 poll_ms) /. 1000.0);
                ([], [], [])
              end
            in
            if readable <> [] then begin
              match input_line stdin with
              | exception End_of_file ->
                  (* piped command stream ended: finish pending polls
                     and stop — interactive use quits with `quit` *)
                  quit := true
              | line -> (
                  match
                    String.split_on_char ' ' (String.trim line)
                    |> List.filter (fun s -> s <> "")
                  with
                  | [] -> ()
                  | [ "quit" ] -> quit := true
                  | [ "watch"; p ] -> do_watch p
                  | [ "reanalyze"; p ] -> do_reanalyze p
                  | [ "forget"; p ] ->
                      let dropped =
                        Mira_core.Session.forget session ~path:p
                      in
                      Hashtbl.remove texts p;
                      Hashtbl.remove mtimes p;
                      if json then
                        emit_json
                          (Mira_core.Json.Obj
                             [
                               ("event", Mira_core.Json.Str "forget");
                               ("path", Mira_core.Json.Str p);
                               ("forgotten", Mira_core.Json.Bool dropped);
                             ])
                      else
                        Printf.printf "forget %s: %s\n%!" p
                          (if dropped then "dropped" else "not watched")
                  | _ ->
                      Printf.eprintf
                        "watch: unknown command %S (watch PATH, reanalyze \
                         PATH, forget PATH, quit)\n"
                        line)
            end;
            poll_once ()
          done
        end;
        if !worst <> 0 then exit !worst)
  in
  let paths =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"PATHS" ~doc:"mini-C source files to watch.")
  in
  let poll_ms =
    Arg.(
      value & opt int 200
      & info [ "poll-ms" ] ~docv:"MS"
          ~doc:"File modification-time polling interval.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Analyze, run a single polling pass (reanalyzing anything \
             already edited), then exit — for scripts and CI.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After every reanalyze, cold-analyze each touched file in \
             process and exit 3 unless the warm models are byte-identical.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Hold a long-lived incremental analysis session over a set of \
          sources: edits (detected by mtime polling, or injected as \
          $(i,reanalyze PATH) lines on stdin) invalidate exactly the \
          edited functions plus their cross-file dependents, and only \
          those are re-analyzed.  Warm models are byte-identical to cold \
          analysis ($(b,--check) verifies this).  See README \"Watch \
          mode\".")
    Term.(
      const run $ paths $ level_arg $ Opts.limits_term $ poll_ms $ once
      $ check $ format_arg)

let eval_sweep_cmd =
  let run sweep_file endpoints chunk heartbeat_ms chunk_deadline_ms
      dispatch_retries budget auth_secret_file =
    handle_errors (fun () ->
        let usage_error ln msg =
          Printf.eprintf "error: %s:%d: %s\n" sweep_file ln msg;
          exit 124
        in
        (* one spec line per evaluation: FILE FUNCTION [name=value ...] *)
        let specs =
          let ln = ref 0 in
          read_file sweep_file |> String.split_on_char '\n'
          |> List.filter_map (fun line ->
                 incr ln;
                 let line =
                   String.map (fun c -> if c = '\t' then ' ' else c) line
                   |> String.trim
                 in
                 if line = "" || line.[0] = '#' then None
                 else
                   match
                     String.split_on_char ' ' line
                     |> List.filter (fun s -> s <> "")
                   with
                   | file :: fn :: binds ->
                       let params =
                         List.map
                           (fun tok ->
                             match String.index_opt tok '=' with
                             | Some i when i > 0 -> (
                                 let v =
                                   String.sub tok (i + 1)
                                     (String.length tok - i - 1)
                                 in
                                 match int_of_string_opt v with
                                 | Some n -> (String.sub tok 0 i, n)
                                 | None ->
                                     usage_error !ln
                                       (Printf.sprintf
                                          "binding %S is not name=INT" tok))
                             | _ ->
                                 usage_error !ln
                                   (Printf.sprintf
                                      "binding %S is not name=INT" tok))
                           binds
                       in
                       Some (!ln, file, fn, params)
                   | _ ->
                       usage_error !ln
                         "expected: FILE FUNCTION [name=value ...]")
        in
        if specs = [] then begin
          Printf.eprintf "error: %s: no evaluations\n" sweep_file;
          exit 124
        end;
        (* each distinct file is read (and shipped) once per request but
           loaded from disk once *)
        let sources = Hashtbl.create 16 in
        let source_of ln f =
          match Hashtbl.find_opt sources f with
          | Some s -> s
          | None ->
              let s =
                try read_file f
                with Sys_error m -> usage_error ln m
              in
              Hashtbl.add sources f s;
              s
        in
        (* sweep-frame source names are single tokens, and the
           coordinator requires one name = one text: sanitize the
           basename and disambiguate collisions with a #N suffix *)
        let sanitize s =
          String.map
            (function ' ' | '\t' | '\n' | '\r' -> '_' | c -> c)
            s
        in
        let by_content = Hashtbl.create 16 and used = Hashtbl.create 16 in
        let name_of base text =
          match Hashtbl.find_opt by_content (base, text) with
          | Some n -> n
          | None ->
              let rec pick i =
                let cand =
                  if i = 0 then base else Printf.sprintf "%s#%d" base i
                in
                if Hashtbl.mem used cand then pick (i + 1) else cand
              in
              let n = pick 0 in
              Hashtbl.add used n ();
              Hashtbl.add by_content (base, text) n;
              n
        in
        let bindings =
          List.map
            (fun (ln, file, fn, params) ->
              let text = source_of ln file in
              {
                Mira_core.Coordinator.bd_name =
                  name_of (sanitize (Filename.basename file)) text;
                bd_source = text;
                bd_function = fn;
                bd_params = params;
              })
            specs
        in
        let results, cstats =
          Mira_core.Coordinator.run ~chunk:(max 1 chunk) ~heartbeat_ms
            ~deadline_ms:chunk_deadline_ms ~retries:dispatch_retries
            ?auth_secret:(Opts.load_auth_secret auth_secret_file) ~budget
            endpoints bindings
        in
        let results = Array.to_list results in
        (* results come back in input order whatever the completion order
           across the pool was; render one line per spec line *)
        let fld resp k default =
          Option.value (Mira_core.Serve.field resp k) ~default
        in
        let labels =
          Array.of_list
            (List.map
               (fun (_, file, fn, params) ->
                 Printf.sprintf "%s %s%s" (Filename.basename file) fn
                   (String.concat ""
                      (List.map
                         (fun (k, v) -> Printf.sprintf " %s=%d" k v)
                         params)))
               specs)
        in
        List.iteri
          (fun i result ->
            match result with
            | Error m -> Printf.printf "error %s: %s\n" labels.(i) m
            | Ok resp when resp.Mira_core.Serve.rs_status = "ok" ->
                Printf.printf "ok %s fpi=%s total=%s\n" labels.(i)
                  (fld resp "fpi" "?") (fld resp "total" "?")
            | Ok resp ->
                Printf.printf "error %s: %s\n" labels.(i)
                  (fld resp "message" "unknown error"))
          results;
        (* whole-fleet death: name exactly which evaluations were never
           answered, so a partial run is actionable *)
        (if cstats.Mira_core.Coordinator.co_unfinished <> [] then begin
           Printf.eprintf
             "error: every daemon lost; %d of %d evaluation(s) unanswered:\n"
             (List.length cstats.co_unfinished)
             cstats.co_total;
           List.iter
             (fun i -> Printf.eprintf "  unfinished: %s\n" labels.(i))
             cstats.co_unfinished
         end);
        (* the worst answer decides, in [response_code]'s order:
           transport or internal > budget > analysis *)
        let worst =
          List.fold_left (fun acc r -> max acc (response_code r)) 0 results
        in
        if worst <> 0 then exit worst)
  in
  let sweep_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SWEEPFILE"
          ~doc:
            "Evaluation sweep: one $(i,FILE FUNCTION [name=value ...]) line \
             per evaluation ($(i,#) comments and blank lines ignored).")
  in
  let chunk =
    Arg.(
      value & opt int 64
      & info [ "chunk" ] ~docv:"N"
          ~doc:
            "Evaluations shipped to a daemon per $(i,sweep) frame; the \
             daemon schedules them across its own worker pool and streams \
             one answer frame per evaluation.")
  in
  let heartbeat_ms =
    Arg.(
      value & opt int 1000
      & info [ "heartbeat-ms" ] ~docv:"MS"
          ~doc:
            "Liveness threshold per daemon connection: after this much \
             silence (no byte received, so a frame still arriving is not \
             silence) the coordinator pings, and a second silent interval \
             declares the daemon lost — its unfinished evaluations are \
             re-dispatched to the survivors.  0 disables loss detection; \
             a $(b,--chunk-deadline-ms) still bounds every chunk.")
  in
  let chunk_deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "chunk-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Hard wall-clock bound on one chunk end to end; an overrun is \
             treated as a lost daemon.  0 disables.")
  in
  let dispatch_retries =
    Arg.(
      value & opt int 3
      & info [ "dispatch-retries" ] ~docv:"N"
          ~doc:
            "Extra attempts a chunk gets before its first answer, on \
             another daemon when there is one.  Independently, two \
             consecutive failures open a daemon's circuit: it gets no \
             chunks until its cooldown (0.5 s, doubling per trip up to \
             8 s) has passed, and then one chunk as a probe.")
  in
  Cmd.v
    (Cmd.info "eval-sweep"
       ~doc:
         "Fan a batch of model evaluations across a fleet of $(b,mira \
          serve) daemons (repeat $(b,--endpoint); Unix and TCP mix freely) \
          and print one result line per sweep line, in input order.  The \
          sweep travels in whole chunks ($(b,--chunk)) that each daemon \
          schedules internally; a daemon that dies or goes silent \
          mid-chunk has its unfinished evaluations re-dispatched to the \
          survivors, so every evaluation is answered exactly once.  Exit \
          status is 3 if any evaluation could not be completed by any \
          daemon (the unanswered ones are named on stderr), else 2 on any \
          budget/timeout overrun, else 1 on any analysis failure.")
    Term.(
      const run $ sweep_file $ Opts.endpoints_term
      $ chunk $ heartbeat_ms $ chunk_deadline_ms $ dispatch_retries
      $ Opts.budget_term $ Opts.auth_secret_file)

(* ---------- supervise ---------- *)

let supervise_cmd =
  let run endpoints serve_args probe_interval_ms wedge_timeout_ms
      backoff_base_ms backoff_max_ms storm_failures storm_window_s grace_ms
      seed secret_file =
    handle_errors (fun () ->
        (* the supervisor probes each child at its configured endpoint, so
           a tcp:HOST:0 child would advertise a port only on its own
           stdout — unprobeable.  Demand concrete addresses. *)
        List.iter
          (fun ep ->
            match ep with
            | Mira_core.Endpoint.Tcp (_, 0) ->
                Printf.eprintf
                  "error: supervise needs a concrete endpoint to probe; \
                   tcp port 0 is assigned by the OS inside the child\n";
                exit 124
            | _ -> ())
          endpoints;
        (* a secret that reaches the children but not the supervisor
           leaves its probes unsealed: a tcp child rejects every one *)
        if List.exists (String.starts_with ~prefix:"--auth") serve_args
        then begin
          Printf.eprintf
            "error: give --auth-secret-file to supervise itself, not via \
             --serve-arg: supervise forwards it to every child and seals \
             its health probes with it\n";
          exit 124
        end;
        let auth_secret = Opts.load_auth_secret secret_file in
        let secret_args =
          match secret_file with
          | Some path -> [ "--auth-secret-file"; path ]
          | None -> []
        in
        let exe = Sys.executable_name in
        let children =
          List.mapi
            (fun i ep ->
              {
                Mira_core.Supervisor.cs_name = Printf.sprintf "serve-%d" i;
                cs_argv =
                  Array.of_list
                    ((exe :: "serve" :: "--endpoint"
                     :: Mira_core.Endpoint.to_string ep :: secret_args)
                    @ serve_args);
                cs_endpoint = ep;
              })
            endpoints
        in
        let cfg =
          {
            (Mira_core.Supervisor.default_config ~children) with
            sp_probe_interval_ms = max 50 probe_interval_ms;
            sp_wedge_timeout_ms = max 1 wedge_timeout_ms;
            sp_backoff_base_ms = max 1 backoff_base_ms;
            sp_backoff_max_ms = max backoff_base_ms backoff_max_ms;
            sp_storm_failures = max 1 storm_failures;
            sp_storm_window_s = storm_window_s;
            sp_grace_ms = max 0 grace_ms;
            sp_seed = seed;
            sp_auth_secret = auth_secret;
          }
        in
        let sup = Mira_core.Supervisor.create cfg in
        List.iter
          (fun s ->
            Sys.set_signal s
              (Sys.Signal_handle (fun _ -> Mira_core.Supervisor.stop sup)))
          [ Sys.sigterm; Sys.sigint ];
        let outcome = Mira_core.Supervisor.run sup in
        let st = Mira_core.Supervisor.stats sup in
        Printf.printf
          "mira supervise: %d spawn(s), %d restart(s), %d wedge kill(s)\n"
          st.Mira_core.Supervisor.su_spawns st.su_restarts st.su_wedge_kills;
        match outcome with
        | Mira_core.Supervisor.Drained -> ()
        | Mira_core.Supervisor.Storm name ->
            Printf.eprintf
              "error: child %s kept failing (restart storm); fleet drained\n"
              name;
            exit exit_internal)
  in
  let serve_args =
    Arg.(
      value & opt_all string []
      & info [ "serve-arg" ] ~docv:"ARG"
          ~doc:
            "Extra argument appended to every child's $(b,mira serve) \
             command line (repeatable, in order) — e.g. \
             $(b,--serve-arg=--workers --serve-arg=4).")
  in
  let probe_interval_ms =
    Arg.(
      value & opt int 300
      & info [ "probe-interval-ms" ] ~docv:"MS"
          ~doc:
            "Readiness poll period: each child's $(i,health) verb is \
             probed this often (also the probe's I/O timeout).")
  in
  let wedge_timeout_ms =
    Arg.(
      value & opt int 10_000
      & info [ "wedge-timeout-ms" ] ~docv:"MS"
          ~doc:
            "A child that runs but stays unready — answering \
             $(i,starting) forever, or not answering at all — this long \
             is SIGKILLed and restarted.")
  in
  let backoff_base_ms =
    Arg.(
      value & opt int 200
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:
            "Restart backoff base, doubling per consecutive failure (plus \
             deterministic jitter, see $(b,--seed)).")
  in
  let backoff_max_ms =
    Arg.(
      value & opt int 5_000
      & info [ "backoff-max-ms" ] ~docv:"MS" ~doc:"Restart backoff cap.")
  in
  let storm_failures =
    Arg.(
      value & opt int 5
      & info [ "storm-failures" ] ~docv:"N"
          ~doc:
            "Restart-storm breaker: this many failures of the same child \
             inside $(b,--storm-window-s) means it can not come up; the \
             fleet is drained and supervise exits 3.")
  in
  let storm_window_s =
    Arg.(
      value & opt float 30.0
      & info [ "storm-window-s" ] ~docv:"S"
          ~doc:"Window for $(b,--storm-failures).")
  in
  let grace_ms =
    Arg.(
      value & opt int 5_000
      & info [ "grace-ms" ] ~docv:"MS"
          ~doc:
            "Shutdown drain deadline: SIGTERM fans out to the fleet, and \
             a child still running after this long is SIGKILLed.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Jitter seed: restart delays are jittered by a hash of \
             (seed, child, attempt), so a chaos run replays the same \
             restart timeline for the same seed.")
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:
         "Run a self-healing fleet of $(b,mira serve) daemons: fork one \
          child per $(b,--endpoint), watch liveness (process exit) and \
          readiness (the $(i,health) verb), and restart whatever crashes \
          or wedges — exponential backoff with deterministic jitter, a \
          per-child restart-storm breaker (exit 3), and SIGTERM fan-out \
          drain on shutdown.  Pair with $(b,mira eval-sweep) against the \
          same endpoints: a daemon killed mid-sweep is restarted here and \
          rejoins the running sweep on the client side.  With \
          $(b,--auth-secret-file) every child gets the secret and every \
          $(i,health) probe is sealed with it.")
    Term.(
      const run $ Opts.endpoints_term $ serve_args $ probe_interval_ms
      $ wedge_timeout_ms $ backoff_base_ms $ backoff_max_ms $ storm_failures
      $ storm_window_s $ grace_ms $ seed $ Opts.auth_secret_file)

(* ---------- corpus-dump ---------- *)

let corpus_dump_cmd =
  let run dir =
    Mira_corpus.Corpus.dump ~dir;
    Printf.printf "wrote %d programs to %s/\n"
      (List.length Mira_corpus.Corpus.all)
      dir
  in
  let dir =
    Arg.(value & pos 0 string "corpus" & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "corpus-dump" ~doc:"Write the bundled mini-C corpus to disk.")
    Term.(const run $ dir)

(* ---------- dataset ---------- *)

(* --sweep name=lo:hi[:step] | name=v1,v2,... (repeatable, one grid
   axis each, row order = odometer over the axes in argument order) *)
let sweep_conv =
  let parse s =
    match String.index_opt s '=' with
    | None -> Error (`Msg (Printf.sprintf "expected name=RANGE, got %S" s))
    | Some i -> (
        let name = String.sub s 0 i in
        let spec = String.sub s (i + 1) (String.length s - i - 1) in
        let ints l =
          try Ok (List.map int_of_string l)
          with Failure _ ->
            Error (`Msg (Printf.sprintf "%S: values must be integers" s))
        in
        if name = "" then Error (`Msg (Printf.sprintf "%S: empty name" s))
        else if String.contains spec ',' then
          match ints (String.split_on_char ',' spec) with
          | Ok (_ :: _ as vs) -> Ok (name, vs)
          | Ok [] -> Error (`Msg (Printf.sprintf "%S: empty list" s))
          | Error e -> Error e
        else
          match ints (String.split_on_char ':' spec) with
          | Ok [ v ] -> Ok (name, [ v ])
          | Ok [ lo; hi ] | Ok [ lo; hi; 1 ] when lo <= hi ->
              Ok (name, List.init (hi - lo + 1) (fun i -> lo + i))
          | Ok [ lo; hi; step ] when step > 0 && lo <= hi ->
              Ok
                ( name,
                  List.init
                    (((hi - lo) / step) + 1)
                    (fun i -> lo + (i * step)) )
          | Ok _ ->
              Error
                (`Msg (Printf.sprintf "%S: expected lo:hi[:step], step > 0" s))
          | Error e -> Error e)
  in
  let print ppf (name, vs) =
    Format.fprintf ppf "%s=%s" name
      (String.concat "," (List.map string_of_int vs))
  in
  Arg.conv (parse, print)

let dataset_cmd =
  let run file fname sweeps fixed archs level fmt out =
    handle_errors (fun () ->
        if sweeps = [] then begin
          Printf.eprintf "error: at least one --sweep axis is required\n";
          exit 124
        end;
        let text = read_file file in
        let m = Mira_core.Mira.analyze ~level ~source_name:file text in
        let model = m.Mira_core.Mira.model in
        let archs =
          if archs = [] then [ Mira_arch.Archdesc.arya ] else archs
        in
        let vars = List.map fst sweeps in
        let axes = Array.of_list (List.map (fun (_, vs) -> Array.of_list vs) sweeps) in
        let mns = Mira_core.Model_eval.mnemonic_order model ~fname ~inclusive:true in
        let fp =
          Array.map
            (fun mn -> List.mem mn Mira_core.Model_eval.fp_mnemonics)
            mns
        in
        (* the compiled program when one exists, else the interpreter
           once per row; one compilation serves every arch *)
        let eval =
          match
            Mira_core.Model_compile.compile model ~fname ~sweep:vars ~fixed
          with
          | prog ->
              Mira_core.Model_compile.run (Mira_core.Model_compile.runner prog)
          | exception Mira_core.Model_compile.Not_compilable _ ->
              fun args ->
                let env = List.mapi (fun i v -> (v, args.(i))) vars @ fixed in
                let counts = Mira_core.Model_eval.eval model ~fname ~env in
                Array.of_list (List.map snd counts)
        in
        let cycles arch (out : float array) =
          let acc = ref 0.0 in
          Array.iteri
            (fun i mn ->
              acc :=
                !acc
                +. (out.(i) *. Mira_arch.Archdesc.cost_of_mnemonic arch mn))
            mns;
          !acc
        in
        let buf = Buffer.create 4096 in
        let sep = ref "" in
        (match fmt with
        | `Csv ->
            Buffer.add_string buf "arch";
            List.iter (fun v -> Printf.bprintf buf ",%s" v) vars;
            Array.iter (fun mn -> Printf.bprintf buf ",%s" mn) mns;
            Buffer.add_string buf ",total,fpi,cycles,seconds\n"
        | `Json -> Buffer.add_string buf "[\n");
        let emit_row (arch : Mira_arch.Archdesc.t) args (out : float array)
            cycles =
          let total = Array.fold_left ( +. ) 0.0 out in
          let fpi = ref 0.0 in
          Array.iteri (fun i v -> if fp.(i) then fpi := !fpi +. v) out;
          let seconds = cycles /. (arch.clock_ghz *. 1e9) in
          match fmt with
          | `Csv ->
              Buffer.add_string buf arch.name;
              Array.iter (fun v -> Printf.bprintf buf ",%d" v) args;
              Array.iter (fun v -> Printf.bprintf buf ",%.12g" v) out;
              Printf.bprintf buf ",%.12g,%.12g,%.12g,%.6e\n" total !fpi
                cycles seconds
          | `Json ->
              Printf.bprintf buf "%s  { \"arch\": \"%s\"" !sep arch.name;
              sep := ",\n";
              List.iteri
                (fun i v -> Printf.bprintf buf ", \"%s\": %d" v args.(i))
                vars;
              Array.iteri
                (fun i mn -> Printf.bprintf buf ", \"%s\": %.12g" mn out.(i))
                mns;
              Printf.bprintf buf
                ", \"total\": %.12g, \"fpi\": %.12g, \"cycles\": %.12g, \
                 \"seconds\": %.6e }"
                total !fpi cycles seconds
        in
        List.iter
          (fun arch ->
            let n = Array.length axes in
            let idx = Array.make n 0 in
            let args = Array.make n 0 in
            let rec next () =
              Array.iteri (fun i ax -> args.(i) <- ax.(idx.(i))) axes;
              let out = eval args in
              emit_row arch args out (cycles arch out);
              (* odometer: last axis fastest *)
              let rec carry i =
                if i >= 0 then begin
                  idx.(i) <- idx.(i) + 1;
                  if idx.(i) >= Array.length axes.(i) then begin
                    idx.(i) <- 0;
                    carry (i - 1)
                  end
                  else next ()
                end
              in
              carry (n - 1)
            in
            next ())
          archs;
        if fmt = `Json then Buffer.add_string buf "\n]\n";
        match out with
        | "-" -> print_string (Buffer.contents buf)
        | path ->
            write_file path (Buffer.contents buf);
            Printf.eprintf "dataset: wrote %s\n" path)
  in
  let fname =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "function" ] ~docv:"FN"
          ~doc:"Function to sweep (mangled name).")
  in
  let sweeps =
    Arg.(
      value & opt_all sweep_conv []
      & info [ "sweep" ] ~docv:"NAME=RANGE"
          ~doc:
            "Grid axis: $(i,name=lo:hi), $(i,name=lo:hi:step) or \
             $(i,name=v1,v2,...) (repeatable; row order sweeps the last \
             axis fastest).")
  in
  let archs =
    Arg.(
      value & opt_all arch_conv []
      & info [ "arch" ] ~docv:"ARCH"
          ~doc:
            "Architecture(s) to include, one row block each (repeatable; \
             default arya).")
  in
  let fmt =
    Arg.(
      value
      & opt (enum [ ("csv", `Csv); ("json", `Json) ]) `Csv
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: csv or json.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file ($(i,-) for stdout).")
  in
  Cmd.v
    (Cmd.info "dataset"
       ~doc:
         "Sweep a function's model over parameter grids and architectures \
          and emit a training-ready table (one row per grid point per \
          arch: parameters, per-mnemonic counts, total, FPI, predicted \
          cycles and seconds).  Sweeps run on the compiled evaluator \
          (see README \"Compiled evaluation\"); models without a closed \
          form fall back to the interpreter.")
    Term.(
      const run $ file_arg $ fname $ sweeps $ params_arg $ archs $ level_arg
      $ fmt $ out)

(* ---------- arch ---------- *)

let arch_cmd =
  let run arch =
    print_string (Mira_arch.Archdesc.to_text arch);
    match Mira_arch.Archdesc.validate arch with
    | Ok () -> ()
    | Error es ->
        List.iter (Printf.eprintf "invalid: %s\n") es;
        exit 1
  in
  Cmd.v
    (Cmd.info "arch" ~doc:"Print (and validate) an architecture description.")
    Term.(const run $ arch_arg)

let () =
  (* process-wide: a peer disconnecting mid-write (daemon responses,
     piped stdout) must surface as Unix_error (EPIPE, ...) on that
     descriptor and be handled there — never terminate the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let doc = "Mira: static performance analysis for mini-C programs" in
  let info = Cmd.info "mira" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; dot_cmd; compile_cmd; disasm_cmd; analyze_cmd; eval_cmd;
            predict_cmd; profile_cmd; coverage_cmd; validate_cmd; batch_cmd;
            cache_cmd; serve_cmd; supervise_cmd; client_cmd; watch_cmd;
            eval_sweep_cmd; dataset_cmd; corpus_dump_cmd; arch_cmd;
          ]))
