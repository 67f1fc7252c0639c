(* The machine-readable surface, pinned byte-for-byte.

   [--format json] and the daemon's watch/reanalyze frame bodies share
   one encoder ({!Mira_core.Json}); external tooling parses its output,
   so the schema is frozen by golden bytes: escaping, float rendering,
   span/diag/model/batch documents.  Any intentional schema change
   regenerates the pins with

     MIRA_GOLDEN_GEN=1 dune exec test/test_json.exe

   and pastes the printed list over [pinned_goldens] — a diff in the
   pins is then a visible, reviewed schema change rather than a silent
   one.

   The second half is the multi-span rendering suite: the head line of
   [Diag.to_string] must stay byte-identical to the pre-multi-span
   format (one line, no spans rendered) while labelled spans append
   indented [at L:C: label] lines, and [Diag.to_editor_string] must
   emit one GNU-style line per span. *)

open Mira_core

let level = Mira_codegen.Codegen.O1
let limits = Limits.default

(* ---------------- fixtures ---------------- *)

let pos = Mira_srclang.Loc.pos

let diag_compat =
  Diag.make ~pos:(pos 3 7) Diag.Parse Diag.User_error "expected \";\""

let diag_multi =
  Diag.make_spans Diag.Typecheck Diag.User_error "2 type errors"
    [
      Diag.span ~label:"undeclared variable `x`" (pos 2 5);
      Diag.span ~label:"int/double mismatch" (pos 9 12);
    ]

let diag_bare = Diag.make Diag.Driver Diag.Io_error "disk full"

let tiny_src =
  "int f(int n) {\n\
  \  int acc = 0;\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    acc = acc + 2;\n\
  \  }\n\
  \  return acc;\n\
   }\n"

let bad_src = "int broken(int n) {\n  return\n"

let tiny_batch () =
  Batch.run ~jobs:1 ~level ~limits
    [
      { Batch.src_name = "tiny.mc"; src_text = tiny_src };
      { Batch.src_name = "broken.mc"; src_text = bad_src };
    ]

let tiny_model () =
  match tiny_batch () with
  | [ Ok a; _ ], _ -> a.Batch.a_model
  | _ -> Alcotest.fail "tiny.mc failed to analyze"

(* ---------------- goldens ---------------- *)

let current_goldens () =
  let results, stats = tiny_batch () in
  [
    ( "escape",
      Json.to_string
        (Json.Str "quote:\" back:\\ nl:\n cr:\r tab:\t ctl:\x01 utf8:\xc3\xa9")
    );
    ( "scalars",
      Json.to_string
        (Json.Arr
           [
             Json.Null;
             Json.Bool true;
             Json.Bool false;
             Json.Int 42;
             Json.Int (-7);
             Json.Float 1.0;
             Json.Float 0.5;
             Json.Float (1.0 /. 3.0);
             Json.Float Float.nan;
             Json.Raw "{\"pre\":1}";
           ]) );
    ("span", Json.to_string (Json.of_span (Diag.span ~label:"here" (pos 3 7))));
    ( "span-unlabelled",
      Json.to_string (Json.of_span (Diag.span (pos 1 1))) );
    ("diag-compat", Json.to_string (Json.of_diag diag_compat));
    ("diag-multi-span", Json.to_string (Json.of_diag diag_multi));
    ("diag-no-span", Json.to_string (Json.of_diag diag_bare));
    ("model", Json.to_string (Json.of_model (tiny_model ())));
    ("batch", Json.to_string (Json.of_batch results stats));
  ]

(* generated with MIRA_GOLDEN_GEN=1 (see the header) *)
let pinned_goldens : (string * string) list =
  [
    ("escape", "\"quote:\\\" back:\\\\ nl:\\n cr:\\r tab:\\t ctl:\\u0001 utf8:\195\169\"");
    ("scalars", "[null,true,false,42,-7,1.0,0.5,0.33333333333333331,null,{\"pre\":1}]");
    ("span", "{\"label\":\"here\",\"line\":3,\"col\":7}");
    ("span-unlabelled", "{\"label\":null,\"line\":1,\"col\":1}");
    ("diag-compat", "{\"phase\":\"parse\",\"kind\":\"error\",\"message\":\"expected \\\";\\\"\",\"spans\":[{\"label\":null,\"line\":3,\"col\":7}],\"rendered\":\"parse error at 3:7: expected \\\";\\\"\"}");
    ("diag-multi-span", "{\"phase\":\"type\",\"kind\":\"error\",\"message\":\"2 type errors\",\"spans\":[{\"label\":\"undeclared variable `x`\",\"line\":2,\"col\":5},{\"label\":\"int/double mismatch\",\"line\":9,\"col\":12}],\"rendered\":\"type error at 2:5: 2 type errors\\n  at 2:5: undeclared variable `x`\\n  at 9:12: int/double mismatch\"}");
    ("diag-no-span", "{\"phase\":\"driver\",\"kind\":\"I/O error\",\"message\":\"disk full\",\"spans\":[],\"rendered\":\"I/O error: disk full\"}");
    ("model", "{\"file\":\"tiny.mc\",\"functions\":[{\"name\":\"f\",\"python_name\":\"f_1\",\"class\":null,\"arity\":1,\"params\":[\"n\"],\"source_params\":[\"n\"],\"warnings\":[],\"python\":\"def f_1(n):\\n    m = {}\\n    # line 2 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-init)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-cond)\\n    bump(m, \\\"cmpq\\\", (n) + (1))\\n    bump(m, \\\"jge\\\", (n) + (1))\\n    # line 3 (loop-step)\\n    bump(m, \\\"incq\\\", (n))\\n    bump(m, \\\"jmp\\\", (n))\\n    # line 4 (stmt)\\n    bump(m, \\\"addq\\\", (n))\\n    bump(m, \\\"movq\\\", 2 * ((n)))\\n    # line 6 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    bump(m, \\\"ret\\\", (1))\\n    # line 1 (overhead)\\n    bump(m, \\\"movq\\\", (1))\\n    return m\\n\"}],\"python\":\"# Performance model generated by Mira from tiny.mc\\n# Evaluate a function to obtain its per-instruction-category counts\\n# for one invocation; parameters preserve statically-unknown values\\n# (loop bounds from inputs, annotation variables).\\n\\ndef handle_function_call(caller, callee, iters):\\n    for k in callee:\\n        caller[k] = caller.get(k, 0) + callee[k] * iters\\n    return caller\\n\\ndef bump(m, k, c):\\n    m[k] = m.get(k, 0) + c\\n    return m\\n\\ndef f_1(n):\\n    m = {}\\n    # line 2 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-init)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-cond)\\n    bump(m, \\\"cmpq\\\", (n) + (1))\\n    bump(m, \\\"jge\\\", (n) + (1))\\n    # line 3 (loop-step)\\n    bump(m, \\\"incq\\\", (n))\\n    bump(m, \\\"jmp\\\", (n))\\n    # line 4 (stmt)\\n    bump(m, \\\"addq\\\", (n))\\n    bump(m, \\\"movq\\\", 2 * ((n)))\\n    # line 6 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    bump(m, \\\"ret\\\", (1))\\n    # line 1 (overhead)\\n    bump(m, \\\"movq\\\", (1))\\n    return m\\n\"}");
    ("batch", "{\"results\":[{\"status\":\"ok\",\"file\":\"tiny.mc\",\"cached\":false,\"functions\":[{\"name\":\"f\",\"python_name\":\"f_1\",\"class\":null,\"arity\":1,\"params\":[\"n\"],\"source_params\":[\"n\"],\"warnings\":[],\"python\":\"def f_1(n):\\n    m = {}\\n    # line 2 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-init)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-cond)\\n    bump(m, \\\"cmpq\\\", (n) + (1))\\n    bump(m, \\\"jge\\\", (n) + (1))\\n    # line 3 (loop-step)\\n    bump(m, \\\"incq\\\", (n))\\n    bump(m, \\\"jmp\\\", (n))\\n    # line 4 (stmt)\\n    bump(m, \\\"addq\\\", (n))\\n    bump(m, \\\"movq\\\", 2 * ((n)))\\n    # line 6 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    bump(m, \\\"ret\\\", (1))\\n    # line 1 (overhead)\\n    bump(m, \\\"movq\\\", (1))\\n    return m\\n\"}],\"warnings\":[],\"python\":\"# Performance model generated by Mira from tiny.mc\\n# Evaluate a function to obtain its per-instruction-category counts\\n# for one invocation; parameters preserve statically-unknown values\\n# (loop bounds from inputs, annotation variables).\\n\\ndef handle_function_call(caller, callee, iters):\\n    for k in callee:\\n        caller[k] = caller.get(k, 0) + callee[k] * iters\\n    return caller\\n\\ndef bump(m, k, c):\\n    m[k] = m.get(k, 0) + c\\n    return m\\n\\ndef f_1(n):\\n    m = {}\\n    # line 2 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-init)\\n    bump(m, \\\"movq\\\", (1))\\n    # line 3 (loop-cond)\\n    bump(m, \\\"cmpq\\\", (n) + (1))\\n    bump(m, \\\"jge\\\", (n) + (1))\\n    # line 3 (loop-step)\\n    bump(m, \\\"incq\\\", (n))\\n    bump(m, \\\"jmp\\\", (n))\\n    # line 4 (stmt)\\n    bump(m, \\\"addq\\\", (n))\\n    bump(m, \\\"movq\\\", 2 * ((n)))\\n    # line 6 (stmt)\\n    bump(m, \\\"movq\\\", (1))\\n    bump(m, \\\"ret\\\", (1))\\n    # line 1 (overhead)\\n    bump(m, \\\"movq\\\", (1))\\n    return m\\n\"},{\"status\":\"error\",\"file\":\"broken.mc\",\"diag\":{\"phase\":\"parse\",\"kind\":\"error\",\"message\":\"expected expression, found \\\"<eof>\\\"\",\"spans\":[{\"label\":null,\"line\":3,\"col\":1}],\"rendered\":\"parse error at 3:1: expected expression, found \\\"<eof>\\\"\"}}],\"stats\":{\"total\":2,\"analyzed\":1,\"mem_hits\":0,\"disk_hits\":0,\"failed\":1,\"jobs\":1,\"budget\":0,\"injected\":0,\"cache_corrupt\":0,\"io_retries\":0,\"io_failures\":0,\"assembled\":0,\"fn_mem_hits\":0,\"fn_disk_hits\":0,\"fn_analyzed\":0}}");
  ]

let check_goldens () =
  let current = current_goldens () in
  Alcotest.(check (list string))
    "golden set is complete" (List.map fst current)
    (List.map fst pinned_goldens);
  List.iter
    (fun (name, bytes) ->
      match List.assoc_opt name pinned_goldens with
      | None -> Alcotest.failf "golden %s has no pinned bytes" name
      | Some pinned -> Alcotest.(check string) name pinned bytes)
    current

(* the CLI document is exactly the library encoding: `mira batch
   --format json` must print Json.of_batch and nothing else *)
let check_cli_batch_json () =
  let dir = Filename.get_temp_dir_name () in
  let src = Filename.concat dir (Printf.sprintf "json-cli-%d.mc" (Unix.getpid ())) in
  Out_channel.with_open_bin src (fun oc -> Out_channel.output_string oc tiny_src);
  Fun.protect
    ~finally:(fun () -> try Sys.remove src with Sys_error _ -> ())
    (fun () ->
      let mira_exe = Filename.concat (Filename.concat ".." "bin") "mira.exe" in
      let ic =
        Unix.open_process_in
          (Filename.quote_command mira_exe [ "batch"; src; "--format"; "json" ])
      in
      let out = In_channel.input_all ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "mira batch --format json exited non-zero");
      let results, stats =
        Batch.run ~jobs:1 ~level ~limits
          [ { Batch.src_name = Filename.basename src; src_text = tiny_src } ]
      in
      Alcotest.(check string)
        "CLI output is the library encoding + newline"
        (Json.to_string (Json.of_batch results stats) ^ "\n")
        out)

(* ---------------- multi-span rendering ---------------- *)

let check_to_string () =
  Alcotest.(check string)
    "compat head line is byte-identical to the pre-multi-span format"
    "parse error at 3:7: expected \";\""
    (Diag.to_string diag_compat);
  Alcotest.(check string)
    "labelled spans append indented lines"
    "type error at 2:5: 2 type errors\n\
    \  at 2:5: undeclared variable `x`\n\
    \  at 9:12: int/double mismatch"
    (Diag.to_string diag_multi);
  Alcotest.(check string)
    "a span-free diagnostic is one line" "I/O error: disk full"
    (Diag.to_string diag_bare)

let check_to_editor_string () =
  Alcotest.(check string)
    "one GNU-style line per span, span labels as the message"
    "lu.mc:2:5: type error: undeclared variable `x`\n\
     lu.mc:9:12: type error: int/double mismatch"
    (Diag.to_editor_string ~file:"lu.mc" diag_multi);
  Alcotest.(check string)
    "file defaults to <input>" "<input>:3:7: parse error: expected \";\""
    (Diag.to_editor_string diag_compat);
  Alcotest.(check string)
    "positionless diagnostics still carry the file"
    "lu.mc: I/O error: disk full"
    (Diag.to_editor_string ~file:"lu.mc" diag_bare)

let check_primary_pos () =
  (match Diag.primary_pos diag_multi with
  | Some p ->
      Alcotest.(check (pair int int))
        "primary span is the first" (2, 5)
        (p.Mira_srclang.Loc.line, p.Mira_srclang.Loc.col)
  | None -> Alcotest.fail "multi-span diag lost its primary position");
  Alcotest.(check bool)
    "span-free diag has no primary position" true
    (Diag.primary_pos diag_bare = None)

(* a multi-error typecheck failure arrives as one diagnostic with one
   labelled span per error — the end-to-end source of multi-span *)
let check_multi_error_pipeline () =
  let two_errors = "int f(int n) {\n  return missing_a + missing_b;\n}\n" in
  match
    Batch.run ~jobs:1 ~level ~limits
      [ { Batch.src_name = "two.mc"; src_text = two_errors } ]
  with
  | [ Error (_, d) ], _ ->
      Alcotest.(check bool)
        "at least two spans" true
        (List.length d.Diag.d_spans >= 2);
      List.iter
        (fun (s : Diag.span) ->
          Alcotest.(check bool)
            "every span is labelled" true
            (s.Diag.sp_label <> None))
        d.Diag.d_spans
  | _ -> Alcotest.fail "two.mc unexpectedly analyzed"

let () =
  if Sys.getenv_opt "MIRA_GOLDEN_GEN" <> None then begin
    List.iter
      (fun (k, v) -> Printf.printf "    (%S, %S);\n" k v)
      (current_goldens ());
    exit 0
  end;
  Alcotest.run "json"
    [
      ( "goldens",
        [
          Alcotest.test_case "pinned bytes" `Quick check_goldens;
          Alcotest.test_case "cli batch --format json" `Quick
            check_cli_batch_json;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "to_string" `Quick check_to_string;
          Alcotest.test_case "to_editor_string" `Quick check_to_editor_string;
          Alcotest.test_case "primary_pos" `Quick check_primary_pos;
          Alcotest.test_case "multi-error pipeline" `Quick
            check_multi_error_pipeline;
        ] );
    ]
