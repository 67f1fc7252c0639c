(* Compiled evaluation differential suite.

   Model_compile partially evaluates a model into a register program;
   Model_eval (the tree-walking interpreter) is its oracle.  The two
   reassociate float arithmetic differently (Horner vs monomial-order
   summation), so equality is checked to relative tolerance — while
   integer-exact paths (call bindings, floor steps) must agree
   exactly by construction.

   Covered here:
   - corpus differential: every corpus function, compiled over its
     full parameter set and over random sweep/fixed splits, matches
     eval;
   - randomized differential over test/kernelgen.ml programs (seeded
     by MIRA_FUZZ_SEED like the fuzz oracle);
   - Missing_parameter raised identically (same function, parameter)
     by the compiled and interpreted paths;
   - graceful Not_compilable fallback (recursive model) instead of
     divergence;
   - the program cache: hit/miss accounting, invalidation on model
     digest change, the checksummed disk tier (round-trip,
     corrupt-entry degradation), negative caching of uncompilable
     models;
   - the daemon: eval served through the compile cache, with
     compile-hits/compile-misses surfaced in stats (satellite of the
     serve suite; test_serve.ml itself is unchanged), programs keyed
     by source, not by the lossy emitted Python, and function-tier
     stats that count each cache event once under concurrent
     requests. *)

open Mira_core
module Corpus = Mira_corpus.Corpus

let fuzz_seed =
  match Sys.getenv_opt "MIRA_FUZZ_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> failwith "MIRA_FUZZ_SEED must be an integer")
  | None -> 20260806

let tol = 1e-6

let check_close what a b =
  let bound = tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  if Float.abs (a -. b) > bound then
    Alcotest.failf "%s: compiled %.17g <> interpreted %.17g" what a b

let check_counts what compiled interpreted =
  Alcotest.(check (list string))
    (what ^ ": mnemonic sets")
    (List.map fst interpreted) (List.map fst compiled);
  List.iter2
    (fun (mn, c) (_, i) -> check_close (what ^ " " ^ mn) c i)
    compiled interpreted

(* Compare the compiled path against the interpreter for one
   (model, fname, sweep, fixed) configuration.  Returns false when
   the model is not compilable under this sweep set (callers may
   assert on the fallback rate). *)
let differential what model ~fname ~sweep ~fixed ~env =
  match
    Model_compile.compile model ~fname ~sweep ~fixed
  with
  | exception Model_compile.Not_compilable _ -> false
  | prog ->
      let interp = Model_eval.eval model ~fname ~env in
      let comp = Model_compile.eval prog ~env in
      check_counts (what ^ " [incl]") comp interp;
      true

(* ---------- corpus differential ---------- *)

let corpus_env_values = [ 4; 7; 12; 37; 100 ]

let test_corpus_differential () =
  let rng = Random.State.make [| fuzz_seed; 17 |] in
  let compiled = ref 0 and fallback = ref 0 in
  List.iter
    (fun (name, src) ->
      let model = (Mira.analyze ~source_name:name src).model in
      List.iter
        (fun (fm : Model_ir.fmodel) ->
          let fname = fm.mf_name in
          let params = fm.mf_params in
          List.iteri
            (fun i base ->
              let env =
                List.mapi (fun j p -> (p, base + (j * 3))) params
              in
              let what = Printf.sprintf "%s/%s#%d" name fname i in
              (* all parameters swept *)
              let ok =
                differential what model ~fname ~sweep:params ~fixed:[] ~env
              in
              if ok then incr compiled else incr fallback;
              (* random sweep/fixed split: fixed params fold away *)
              let sweep, fixed_names =
                List.partition (fun _ -> Random.State.bool rng) params
              in
              ignore
                (differential (what ^ " split-env") model ~fname ~sweep
                   ~fixed:
                     (List.map
                        (fun p -> (p, List.assoc p env))
                        fixed_names)
                   ~env))
            corpus_env_values)
        model.functions)
    Corpus.all;
  Alcotest.(check bool)
    (Printf.sprintf
       "most corpus functions compile (compiled %d, fallback %d)"
       !compiled !fallback)
    true
    (!compiled > 10 * max 1 !fallback)

(* ---------- randomized kernels ---------- *)

let test_random_kernels () =
  let rng = Random.State.make [| fuzz_seed; 23 |] in
  for i = 1 to 25 do
    let kernel = Kernelgen.gen_kernel rng in
    let src = Kernelgen.render kernel in
    let model = (Mira.analyze ~source_name:"fuzz.mc" src).model in
    List.iter
      (fun (fm : Model_ir.fmodel) ->
        let fname = fm.mf_name in
        let params = fm.mf_params in
        for j = 1 to 3 do
          let env =
            List.map (fun p -> (p, 2 + Random.State.int rng 11)) params
          in
          let what = Printf.sprintf "kernel#%d/%s env#%d" i fname j in
          ignore
            (differential what model ~fname ~sweep:params ~fixed:[] ~env);
          let sweep, fixed_names =
            List.partition (fun _ -> Random.State.bool rng) params
          in
          ignore
            (differential (what ^ " mixed") model ~fname ~sweep
               ~fixed:(List.map (fun p -> (p, List.assoc p env)) fixed_names)
               ~env)
        done)
      model.functions
  done

(* ---------- error parity ---------- *)

let missing_parameter_of f =
  match f () with
  | _ -> Alcotest.fail "expected Missing_parameter"
  | exception Model_eval.Missing_parameter (fn, p) -> (fn, p)

let test_missing_parameter_parity () =
  let model =
    (Mira.analyze ~source_name:"stream.mc" Corpus.stream).model
  in
  let fname = "stream_triad" in
  let interp =
    missing_parameter_of (fun () ->
        Model_eval.eval model ~fname ~env:[ ("bogus", 1) ])
  in
  let comp =
    missing_parameter_of (fun () ->
        Model_compile.compile model ~fname ~sweep:[ "bogus" ] ~fixed:[])
  in
  Alcotest.(check (pair string string))
    "compile raises the same (function, parameter)" interp comp;
  (* and at binding time: a program over [n] evaluated without [n] *)
  let prog = Model_compile.compile model ~fname ~sweep:[ "n" ] ~fixed:[] in
  let at_eval =
    missing_parameter_of (fun () -> Model_compile.eval prog ~env:[])
  in
  Alcotest.(check (pair string string))
    "run-time env misses raise identically" (fname, "n") at_eval;
  (* unknown functions: same Invalid_argument message *)
  let invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument m -> m
  in
  Alcotest.(check string)
    "unknown function message matches eval"
    (invalid (fun () -> Model_eval.eval model ~fname:"nope" ~env:[]))
    (invalid (fun () ->
         Model_compile.compile model ~fname:"nope" ~sweep:[] ~fixed:[]))

(* ---------- fallback on uncompilable models ---------- *)

let recursive_model =
  let open Model_ir in
  {
    functions =
      [
        {
          mf_name = "loopy";
          mf_source_params = [ "n" ];
          mf_arity = 1;
          mf_class = None;
          mf_params = [ "n" ];
          mf_entries =
            [
              Update
                {
                  line = 1;
                  label = "self";
                  counts = [ ("addsd", 1) ];
                  mult = mult_one;
                };
              Call_site
                {
                  line = 2;
                  callee = "loopy";
                  bindings = [];
                  mult = mult_one;
                };
            ];
          mf_warnings = [];
        };
      ];
    source_name = "rec.mc";
  }

let test_not_compilable_fallback () =
  (match
     Model_compile.compile recursive_model ~fname:"loopy" ~sweep:[ "n" ]
       ~fixed:[]
   with
  | _ -> Alcotest.fail "recursive model must not compile"
  | exception Model_compile.Not_compilable _ -> ());
  (* the cache answers Error (and counts a fallback) instead of raising *)
  let c = Model_compile.create_cache () in
  let r =
    Model_compile.get c ~digest:"d0" ~model:recursive_model ~fname:"loopy"
      ~sweep:[ "n" ] ~fixed:[] ()
  in
  (match r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error from cache get");
  let r2 =
    Model_compile.get c ~digest:"d0" ~model:recursive_model ~fname:"loopy"
      ~sweep:[ "n" ] ~fixed:[] ()
  in
  (match r2 with Error _ -> () | Ok _ -> Alcotest.fail "negative cache");
  let s = Model_compile.stats c in
  Alcotest.(check int) "two fallbacks counted" 2 s.Model_compile.fallbacks;
  Alcotest.(check int) "no misses" 0 s.Model_compile.misses

(* ---------- cache accounting and invalidation ---------- *)

let stream_model =
  lazy (Mira.analyze ~source_name:"stream.mc" Corpus.stream).model

let get_stream c ~digest () =
  Model_compile.get c ~digest ~model:(Lazy.force stream_model)
    ~fname:"stream_triad" ~sweep:[ "n" ] ~fixed:[] ()

let ok_exn = function
  | Ok p -> p
  | Error m -> Alcotest.failf "unexpected fallback: %s" m

let test_cache_accounting () =
  let c = Model_compile.create_cache () in
  let p1 = ok_exn (get_stream c ~digest:"da" ()) in
  let p2 = ok_exn (get_stream c ~digest:"da" ()) in
  Alcotest.(check bool) "second get is the same program" true (p1 == p2);
  let s = Model_compile.stats c in
  Alcotest.(check int) "one miss" 1 s.Model_compile.misses;
  Alcotest.(check int) "one hit" 1 s.Model_compile.hits;
  (* model digest change invalidates *)
  ignore (ok_exn (get_stream c ~digest:"db" ()));
  Alcotest.(check int) "digest change recompiles" 2
    (Model_compile.stats c).Model_compile.misses

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mira-prog-cache-%d-%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir d 0o755;
    d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let test_cache_disk_tier () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c1 = Model_compile.create_cache ~dir () in
      let p1 = ok_exn (get_stream c1 ~digest:"da" ()) in
      (* a fresh cache over the same directory loads from disk *)
      let c2 = Model_compile.create_cache ~dir () in
      let p2 = ok_exn (get_stream c2 ~digest:"da" ()) in
      let s2 = Model_compile.stats c2 in
      Alcotest.(check int) "disk hit" 1 s2.Model_compile.disk_hits;
      Alcotest.(check int) "no recompilation" 0 s2.Model_compile.misses;
      Alcotest.(check (list string))
        "disk round-trip preserves the program"
        (Array.to_list (Model_compile.mnemonics p1))
        (Array.to_list (Model_compile.mnemonics p2));
      let env = [ ("n", 1000) ] in
      check_counts "disk-loaded program evaluates identically"
        (Model_compile.eval p2 ~env)
        (Model_compile.eval p1 ~env);
      (* corrupt every entry: a third cache must degrade to a clean
         recompile, never crash *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".prog" then begin
            let path = Filename.concat dir f in
            let oc = open_out_bin path in
            output_string oc "garbage";
            close_out oc
          end)
        (Sys.readdir dir);
      let c3 = Model_compile.create_cache ~dir () in
      ignore (ok_exn (get_stream c3 ~digest:"da" ()));
      let s3 = Model_compile.stats c3 in
      Alcotest.(check int) "corrupt entry degrades to a miss" 1
        s3.Model_compile.misses;
      Alcotest.(check int) "corrupt entry is not a disk hit" 0
        s3.Model_compile.disk_hits)

(* ---------- the daemon: compiled eval + stats counters ---------- *)

let temp_name =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)

let with_server ?(config = Fun.id) f =
  let socket = temp_name "mira-compile-serve" ^ ".sock" in
  let server = Serve.create (config (Serve.default_config ~socket)) in
  let th = Thread.create (fun () -> ignore (Serve.serve server)) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "daemon is up" true (Serve.wait_ready socket);
      f server socket)

let request socket req =
  let fd = Serve.connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Serve.roundtrip fd req with
      | Ok r -> r
      | Error m -> Alcotest.failf "roundtrip failed: %s" m)

(* the compile counters ride as response header fields so the stats
   body key list (pinned wire shape) is untouched *)
let stats_field r key =
  match Serve.field r key with
  | Some v -> v
  | None -> Alcotest.failf "stats response lacks field %s" key

let eval_req ?(n = 1000) () =
  Serve.Eval
    {
      ev_name = "stream.mc";
      ev_source = Corpus.stream;
      ev_function = "stream_triad";
      ev_params = [ ("n", n) ];
      ev_budget = Serve.no_budget;
    }

let test_serve_compile_counters () =
  with_server (fun _ socket ->
      let r1 = request socket (eval_req ()) in
      Alcotest.(check string) "first eval ok" "ok" r1.Serve.rs_status;
      (* the served numbers are the compiled path's; pin them to the
         library interpreter *)
      let model =
        (Mira.analyze ~source_name:"stream.mc" Corpus.stream).model
      in
      let interp =
        Model_eval.eval model ~fname:"stream_triad" ~env:[ ("n", 1000) ]
      in
      (match Serve.field r1 "fpi" with
      | None -> Alcotest.fail "eval response lacks fpi"
      | Some fpi ->
          check_close "served fpi matches interpreter"
            (float_of_string fpi) (Model_eval.fpi interp));
      let r2 = request socket (eval_req ()) in
      Alcotest.(check string) "second eval ok" "ok" r2.Serve.rs_status;
      let r3 = request socket (eval_req ~n:2000 ()) in
      Alcotest.(check string) "third eval ok" "ok" r3.Serve.rs_status;
      let st = request socket Serve.Stats in
      Alcotest.(check string) "stats ok" "ok" st.Serve.rs_status;
      (* one shape compiled once; the second and third evals (same
         sweep shape, different binding) reuse it *)
      Alcotest.(check string)
        "compile-misses" "1" (stats_field st "compile-misses");
      Alcotest.(check string)
        "compile-hits" "2" (stats_field st "compile-hits"))

(* Two sources that differ only inside a deferred (enumerated) count
   emit the same Python, which renders such counts as (0): a program
   cache keyed by the Python would answer the second source with the
   first one's counts. *)
let deferred_source j =
  Printf.sprintf
    "void f(int n) { double x = 0.0; for (int i = 0; i < 100; i += 2) { \
     for (int j = %d; j < i; j++) { x = x + 1.0; } } }"
    j

let test_serve_distinct_deferred_sources () =
  with_server (fun _ socket ->
      let eval source =
        let r =
          request socket
            (Serve.Eval
               {
                 ev_name = "k.mc";
                 ev_source = source;
                 ev_function = "f";
                 ev_params = [];
                 ev_budget = Serve.no_budget;
               })
        in
        Alcotest.(check string) "eval ok" "ok" r.Serve.rs_status;
        r
      in
      ignore (eval (deferred_source 0));
      let b = deferred_source 1 in
      let r = eval b in
      let counts =
        Model_eval.eval
          (Mira.analyze ~source_name:"k.mc" b).model
          ~fname:"f" ~env:[]
      in
      List.iter
        (fun (field, expected) ->
          match Serve.field r field with
          | None -> Alcotest.failf "eval response lacks %s" field
          | Some v ->
              check_close ("second source's " ^ field) (float_of_string v)
                expected)
        [ ("fpi", Model_eval.fpi counts); ("total", Model_eval.total counts) ])

(* Every frame the daemon answers counts once in [served] or [failed]:
   an all-ok sweep of N bindings adds its N binding frames and its
   terminal frame. *)
let test_serve_sweep_counts () =
  with_server (fun server socket ->
      let served () = (Serve.stats server).Serve.sv_served in
      let n = 5 in
      let before = served () in
      let fd = Serve.connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Serve.write_frame fd
            (Serve.encode_request ~id:"sw"
               (Serve.Sweep
                  {
                    sw_sources = [ ("stream.mc", Corpus.stream) ];
                    sw_bindings =
                      List.init n (fun i ->
                          {
                            Serve.sb_index = i;
                            sb_source = "stream.mc";
                            sb_function = "stream_triad";
                            sb_params = [ ("n", 100 * (i + 1)) ];
                          });
                    sw_budget = Serve.no_budget;
                  }));
          let rec drain frames =
            match Serve.read_frame fd with
            | Error e ->
                Alcotest.failf "sweep stream died: %s"
                  (Serve.frame_error_to_string e)
            | Ok payload -> (
                match Serve.parse_response payload with
                | Error m -> Alcotest.failf "bad frame: %s" m
                | Ok r ->
                    Alcotest.(check string) "frame ok" "ok" r.Serve.rs_status;
                    if Serve.field r "sweep-done" = Some "1" then frames + 1
                    else drain (frames + 1))
          in
          Alcotest.(check int) "N binding frames and the terminal" (n + 1)
            (drain 0));
      Alcotest.(check int) "served grew by N+1" (n + 1) (served () - before))

(* A request's Batch.stats deltas also count the traffic of requests
   running beside it, so the daemon reads its function-tier counters
   from the cache itself: 64 formatting-only variants of a primed
   6-function source, 8 at a time behind a 20 ms worker delay, hit the
   function tier exactly 64 x 6 times. *)
let test_serve_stats_count_each_cache_event_once () =
  let slow = { Faults.none with Faults.slow_p = 1.0; slow_ms = 20 } in
  with_server
    ~config:(fun c ->
      {
        c with
        Serve.cfg_workers = 8;
        cfg_faults = Some slow;
        cfg_cache = Some (Batch.create_cache ());
      })
    (fun _ socket ->
      let analyze source =
        Serve.Analyze
          {
            an_name = "stream.mc";
            an_source = source;
            an_budget = Serve.no_budget;
          }
      in
      Alcotest.(check string) "priming analyze" "ok"
        (request socket (analyze Corpus.stream)).Serve.rs_status;
      (* trailing newlines miss the file tier but shift no line *)
      Client.with_endpoint (Endpoint.Unix_sock socket) (fun pool ->
          Client.sweep pool
            (List.init 64 (fun i ->
                 analyze (Corpus.stream ^ String.make (i + 1) '\n'))))
      |> List.iter (function
           | Ok r -> Alcotest.(check string) "variant ok" "ok" r.Serve.rs_status
           | Error m -> Alcotest.failf "variant failed: %s" m);
      let body = (request socket Serve.Stats).Serve.rs_body in
      let get key =
        List.find_map
          (fun l ->
            match String.split_on_char '=' l with
            | [ k; v ] when k = key -> Some v
            | _ -> None)
          (String.split_on_char '\n' body)
        |> Option.value ~default:("no " ^ key)
      in
      List.iter
        (fun (key, v) -> Alcotest.(check string) key v (get key))
        [ ("fn-mem-hits", "384"); ("fn-analyzed", "0"); ("assembled", "64") ])

let () =
  Alcotest.run "model-compile"
    [
      ( "differential",
        [
          Alcotest.test_case "corpus: compiled = interpreted" `Quick
            test_corpus_differential;
          Alcotest.test_case "random kernels: compiled = interpreted" `Quick
            test_random_kernels;
          Alcotest.test_case "Missing_parameter parity" `Quick
            test_missing_parameter_parity;
          Alcotest.test_case "uncompilable models fall back" `Quick
            test_not_compilable_fallback;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting and invalidation" `Quick
            test_cache_accounting;
          Alcotest.test_case "checksummed disk tier" `Quick
            test_cache_disk_tier;
        ] );
      ( "serve",
        [
          Alcotest.test_case "eval verbs surface compile counters" `Quick
            test_serve_compile_counters;
          Alcotest.test_case
            "sources differing in a deferred count get their own counts"
            `Quick test_serve_distinct_deferred_sources;
          Alcotest.test_case "a sweep counts every frame it sends" `Quick
            test_serve_sweep_counts;
          Alcotest.test_case "stats count each cache event once" `Quick
            test_serve_stats_count_each_cache_event_once;
        ] );
    ]
