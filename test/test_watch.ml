(* Watch mode: long-lived incremental sessions, exercised in the
   Goblint incremental-test layout — each case pins a source tree, a
   patch, and the exact expected invalidation set, and asserts BOTH
   the re-analysis counters (nothing beyond the set was recomputed)
   AND byte-identity (every warm model equals a cold whole-file
   analysis of the same text).  Cases cover the three cross-file
   invalidation channels the index tracks (signature, annotation,
   class), the within-file channels (body-only edit, added and deleted
   functions, clean edit), session lifecycle (forget, unwatched paths,
   a broken edit keeping the last good model), and the daemon wire
   surface (watch/reanalyze/forget verbs, streamed binding frames,
   session counters on stats, the daemon-wide session queue, and an
   event loop that keeps answering while a session verb's file read
   blocks on a FIFO). *)

open Mira_core

let level = Mira_codegen.Codegen.O1
let limits = Limits.default

(* ------------------------------------------------------------------ *)
(* The source trees                                                    *)
(* ------------------------------------------------------------------ *)

(* a.mc exports sig:g, sig:f and ann:g; f calls g *)
let a0 =
  "double g(double *a, int n) {\n\
  \  double s = 0.0;\n\
  \  #pragma @Annotation {iters:27}\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    s = s + a[i];\n\
  \  }\n\
  \  return s;\n\
   }\n\n\
   double f(double *a, int n) {\n\
  \  double t = g(a, n);\n\
  \  return t + 1.0;\n\
   }\n"

(* the signature patch: g grows a parameter (f's call site updated) *)
let a_sig =
  "double g(double *a, int n, int reps) {\n\
  \  double s = 0.0;\n\
  \  #pragma @Annotation {iters:27}\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    s = s + a[i];\n\
  \  }\n\
  \  return s;\n\
   }\n\n\
   double f(double *a, int n) {\n\
  \  double t = g(a, n, 1);\n\
  \  return t + 1.0;\n\
   }\n"

(* the annotation patch: only g's @Annotation payload changes *)
let a_ann =
  "double g(double *a, int n) {\n\
  \  double s = 0.0;\n\
  \  #pragma @Annotation {iters:28}\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    s = s + a[i];\n\
  \  }\n\
  \  return s;\n\
   }\n\n\
   double f(double *a, int n) {\n\
  \  double t = g(a, n);\n\
  \  return t + 1.0;\n\
   }\n"

(* the body-only patch: a constant inside f changes; no interface key
   moves and g's fingerprint is untouched *)
let a_body =
  "double g(double *a, int n) {\n\
  \  double s = 0.0;\n\
  \  #pragma @Annotation {iters:27}\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    s = s + a[i];\n\
  \  }\n\
  \  return s;\n\
   }\n\n\
   double f(double *a, int n) {\n\
  \  double t = g(a, n);\n\
  \  return t + 2.0;\n\
   }\n"

(* the deletion patch: f is gone (removing sig:f shifts every
   remaining function's context, so g re-fingerprints as edited) *)
let a_del =
  "double g(double *a, int n) {\n\
  \  double s = 0.0;\n\
  \  #pragma @Annotation {iters:27}\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    s = s + a[i];\n\
  \  }\n\
  \  return s;\n\
   }\n"

(* b.mc defines its OWN g (each watched file typechecks standalone);
   the name-based conservative index still reaches h through sig:g /
   ann:g when a.mc's g changes *)
let b0 =
  "double g(double *a, int n) {\n\
  \  double s = 0.0;\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    s = s + 2.0 * a[i];\n\
  \  }\n\
  \  return s;\n\
   }\n\n\
   double h(double *a, int n) {\n\
  \  return g(a, n) * 0.5;\n\
   }\n"

(* c.mc shares no names with a.mc/b.mc: the control file *)
let c0 =
  "int c_only(int n) {\n\
  \  int acc = 0;\n\
  \  for (int i = 0; i < n; i++) {\n\
  \    acc = acc + 3;\n\
  \  }\n\
  \  return acc;\n\
   }\n"

let c_add =
  c0 ^ "\nint k(int n) {\n  return n + 7;\n}\n"

(* d.mc / e.mc both define class stencil; editing d's field list must
   reach e's class users through class:stencil *)
let class_src mul =
  Printf.sprintf
    "class stencil {\n\
    \  int width;\n\
    \  void apply(double *x, double *y, int n) {\n\
    \    for (int i = 0; i < n; i++) {\n\
    \      y[i] = x[i] * %s;\n\
    \    }\n\
    \  }\n\
     };\n\n\
     void run_%s(double *x, double *y, int n) {\n\
    \  stencil s;\n\
    \  s.apply(x, y, n);\n\
     }\n"
    mul

let d0 = class_src "2.0" "d"
let e0 = class_src "3.0" "e"

let d_field =
  "class stencil {\n\
  \  int width;\n\
  \  int height;\n\
  \  void apply(double *x, double *y, int n) {\n\
  \    for (int i = 0; i < n; i++) {\n\
  \      y[i] = x[i] * 2.0;\n\
  \    }\n\
  \  }\n\
   };\n\n\
   void run_d(double *x, double *y, int n) {\n\
  \  stencil s;\n\
  \  s.apply(x, y, n);\n\
   }\n"

let tree0 = [ ("a.mc", a0); ("b.mc", b0); ("c.mc", c0) ]

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

(* the cold oracle every warm model is held to *)
let cold_python path text =
  match
    Batch.run ~jobs:1 ~level ~limits
      [ { Batch.src_name = path; src_text = text } ]
  with
  | [ Ok a ], _ -> a.Batch.a_python
  | [ Error (_, d) ], _ ->
      Alcotest.failf "cold analysis of %s failed: %s" path (Diag.to_string d)
  | _ -> Alcotest.fail "cold analysis returned an unexpected shape"

let watch_tree sources =
  let s = Session.create ~level ~limits () in
  List.iter
    (fun (p, text) ->
      match Session.watch s ~path:p text with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "watch %s failed: %s" p (Diag.to_string d))
    sources;
  s

let reanalyze_exn s ~path text =
  match Session.reanalyze s ~path text with
  | Ok upd -> upd
  | Error d ->
      Alcotest.failf "reanalyze %s failed: %s" path (Diag.to_string d)

let inval_set (upd : Session.update) =
  List.sort compare
    (List.map
       (fun iv ->
         Printf.sprintf "%s %s %s" iv.Session.iv_file iv.Session.iv_func
           (Session.reason_to_string iv.Session.iv_reason))
       upd.Session.up_invalidated)

let check_invals name expected upd =
  Alcotest.(check (list string)) name (List.sort compare expected)
    (inval_set upd)

(* every watched file's warm model — not just the touched ones — must
   equal a cold analysis of its current text *)
let check_byte_identity s =
  List.iter
    (fun path ->
      let info = Option.get (Session.lookup s ~path) in
      let text = Option.get (Session.source s ~path) in
      Alcotest.(check string)
        (path ^ ": warm model is byte-identical to cold")
        (cold_python path text) info.Session.in_python)
    (Session.paths s)

let counters_list (c : Session.counters) =
  [
    c.Session.ct_files;
    c.Session.ct_reanalyses;
    c.Session.ct_invalidated;
    c.Session.ct_local;
    c.Session.ct_cross;
    c.Session.ct_recomputed;
    c.Session.ct_clean;
  ]

let check_counters name expected s =
  Alcotest.(check (list int))
    (name ^ " counters [files;reanalyses;invalidated;local;cross;\
             recomputed;clean]")
    expected
    (counters_list (Session.counters s))

(* ------------------------------------------------------------------ *)
(* Cross-file invalidation: the three channels                         *)
(* ------------------------------------------------------------------ *)

let test_signature_change () =
  let s = watch_tree tree0 in
  let upd = reanalyze_exn s ~path:"a.mc" a_sig in
  check_invals "signature change invalidates a.mc wholly + b.mc:h"
    [ "a.mc g edited"; "a.mc f edited"; "b.mc h cross:sig:g" ]
    upd;
  Alcotest.(check (list string))
    "only b.mc is cross-touched" [ "b.mc" ] upd.Session.up_cross_files;
  Alcotest.(check int) "all three recomputed" 3 upd.Session.up_recomputed;
  Alcotest.(check bool) "not clean" false upd.Session.up_clean;
  Alcotest.(check (list string))
    "c.mc's model was not reassembled"
    [ "a.mc"; "b.mc" ]
    (List.sort compare
       (List.map fst upd.Session.up_models));
  check_byte_identity s;
  check_counters "signature" [ 3; 1; 3; 2; 1; 3; 0 ] s

let test_annotation_change () =
  let s = watch_tree tree0 in
  let upd = reanalyze_exn s ~path:"a.mc" a_ann in
  check_invals "annotation payload change reaches b.mc:h via ann:g"
    [ "a.mc g edited"; "b.mc h cross:ann:g" ]
    upd;
  Alcotest.(check (list string))
    "only b.mc is cross-touched" [ "b.mc" ] upd.Session.up_cross_files;
  check_byte_identity s;
  check_counters "annotation" [ 3; 1; 2; 1; 1; 2; 0 ] s

let test_class_change () =
  let s = watch_tree [ ("d.mc", d0); ("e.mc", e0) ] in
  let upd = reanalyze_exn s ~path:"d.mc" d_field in
  check_invals "class field change reaches e.mc via class:stencil"
    [
      "d.mc run_d edited";
      "d.mc stencil::apply edited";
      "e.mc run_e cross:class:stencil";
      "e.mc stencil::apply cross:class:stencil";
    ]
    upd;
  Alcotest.(check (list string))
    "only e.mc is cross-touched" [ "e.mc" ] upd.Session.up_cross_files;
  check_byte_identity s;
  check_counters "class" [ 2; 1; 4; 2; 2; 4; 0 ] s

(* ------------------------------------------------------------------ *)
(* Within-file granularity                                             *)
(* ------------------------------------------------------------------ *)

let test_body_only_edit () =
  let s = watch_tree tree0 in
  let upd = reanalyze_exn s ~path:"a.mc" a_body in
  check_invals "an interface-neutral edit invalidates exactly one function"
    [ "a.mc f edited" ] upd;
  Alcotest.(check (list string))
    "no cross-file fallout" [] upd.Session.up_cross_files;
  check_byte_identity s;
  check_counters "body-only" [ 3; 1; 1; 1; 0; 1; 0 ] s

let test_clean_edit () =
  let s = watch_tree tree0 in
  let upd = reanalyze_exn s ~path:"a.mc" a0 in
  Alcotest.(check bool) "identical text is clean" true upd.Session.up_clean;
  check_invals "nothing invalidated" [] upd;
  Alcotest.(check (list string))
    "nothing deleted" [] upd.Session.up_deleted;
  Alcotest.(check int) "nothing recomputed" 0 upd.Session.up_recomputed;
  check_byte_identity s;
  check_counters "clean" [ 3; 1; 0; 0; 0; 0; 1 ] s

let test_deleted_function () =
  let s = watch_tree tree0 in
  let upd = reanalyze_exn s ~path:"a.mc" a_del in
  Alcotest.(check (list string))
    "f is reported deleted" [ "f" ] upd.Session.up_deleted;
  check_invals "the survivor re-fingerprints (sig:f left its context)"
    [ "a.mc g edited" ] upd;
  Alcotest.(check (list string))
    "nobody referenced sig:f" [] upd.Session.up_cross_files;
  let info = Option.get (Session.lookup s ~path:"a.mc") in
  Alcotest.(check (list string))
    "the model now holds g alone" [ "g" ] info.Session.in_functions;
  check_byte_identity s

let test_added_function () =
  let s = watch_tree tree0 in
  let upd = reanalyze_exn s ~path:"c.mc" c_add in
  check_invals "the new function is added; the old one re-fingerprints"
    [ "c.mc c_only edited"; "c.mc k added" ]
    upd;
  let info = Option.get (Session.lookup s ~path:"c.mc") in
  Alcotest.(check (list string))
    "program order is kept" [ "c_only"; "k" ] info.Session.in_functions;
  check_byte_identity s

(* ------------------------------------------------------------------ *)
(* Session lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let test_forget () =
  let s = watch_tree tree0 in
  Alcotest.(check bool) "forget b.mc" true (Session.forget s ~path:"b.mc");
  Alcotest.(check bool)
    "forgetting twice reports unwatched" false
    (Session.forget s ~path:"b.mc");
  Alcotest.(check (list string))
    "b.mc left the watch set" [ "a.mc"; "c.mc" ] (Session.paths s);
  (* the index entries went with it: the same signature edit that
     reached b.mc:h in [test_signature_change] now stays local *)
  let upd = reanalyze_exn s ~path:"a.mc" a_sig in
  check_invals "no cross-file fallout after forget"
    [ "a.mc g edited"; "a.mc f edited" ]
    upd;
  Alcotest.(check (list string))
    "no cross files" [] upd.Session.up_cross_files;
  check_byte_identity s

let test_unwatched_path () =
  let s = watch_tree tree0 in
  match Session.reanalyze s ~path:"zz.mc" c0 with
  | Ok _ -> Alcotest.fail "reanalyze of an unwatched path succeeded"
  | Error d ->
      Alcotest.(check bool)
        "the diagnostic names the path" true
        (let m = Diag.to_string d in
         String.length m > 0)

let test_broken_edit_keeps_state () =
  let s = watch_tree tree0 in
  let before = Option.get (Session.lookup s ~path:"a.mc") in
  (match Session.reanalyze s ~path:"a.mc" "double g(" with
  | Ok _ -> Alcotest.fail "a truncated source reanalyzed successfully"
  | Error _ -> ());
  let after = Option.get (Session.lookup s ~path:"a.mc") in
  Alcotest.(check string)
    "the last good model survives a broken edit" before.Session.in_python
    after.Session.in_python;
  Alcotest.(check (option string))
    "the last good source survives too" (Some a0)
    (Session.source s ~path:"a.mc");
  (* and the session still accepts a good edit afterwards *)
  let upd = reanalyze_exn s ~path:"a.mc" a_body in
  check_invals "recovers to normal service" [ "a.mc f edited" ] upd;
  check_byte_identity s

let test_counters_accumulate () =
  let s = watch_tree tree0 in
  ignore (reanalyze_exn s ~path:"a.mc" a_sig);
  ignore (reanalyze_exn s ~path:"a.mc" a_sig);
  (* clean *)
  ignore (reanalyze_exn s ~path:"a.mc" a_ann);
  (* sig + ann revert: both a.mc functions again, plus b.mc:h *)
  Session.forget s ~path:"c.mc" |> ignore;
  check_counters "after sig, clean, ann"
    [ 2; 3; 3 + 0 + 3; 2 + 0 + 2; 1 + 0 + 1; 3 + 0 + 3; 1 ]
    s

(* ------------------------------------------------------------------ *)
(* The daemon wire surface                                             *)
(* ------------------------------------------------------------------ *)

let temp_name =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)

let with_server f =
  let socket = temp_name "mira-watch" ^ ".sock" in
  let server = Serve.create (Serve.default_config ~socket) in
  let th = Thread.create (fun () -> ignore (Serve.serve server)) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check bool)
        "daemon is up" true
        (Client.wait_ready (Endpoint.Unix_sock socket));
      f socket)

let with_conn socket f =
  let fd = Serve.connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let roundtrip_exn fd req =
  match Serve.roundtrip fd req with
  | Ok r -> r
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

let field_exn resp key =
  match Serve.field resp key with
  | Some v -> v
  | None -> Alcotest.failf "response is missing the %s= field" key

let test_daemon_watch_reanalyze () =
  with_server (fun socket ->
      with_conn socket (fun fd ->
          (* watch all three, shipping the text in the body *)
          List.iter
            (fun (p, text) ->
              let r =
                roundtrip_exn fd
                  (Serve.Watch { wt_path = p; wt_source = text })
              in
              Alcotest.(check string) ("watch " ^ p) "ok" r.Serve.rs_status;
              Alcotest.(check string)
                ("watch " ^ p ^ " echoes the path") p (field_exn r "path"))
            tree0;
          let stats = roundtrip_exn fd Serve.Stats in
          Alcotest.(check string)
            "stats counts watched files" "3"
            (field_exn stats "watch-files");
          (* reanalyze streams: one tagged frame per invalidated
             function, then the terminal reanalyze-done frame *)
          Serve.write_frame fd
            (Serve.encode_request ~id:"rz-1"
               (Serve.Reanalyze { rz_path = "a.mc"; rz_source = a_sig }));
          let rec drain acc =
            match Serve.read_frame fd with
            | Error e ->
                Alcotest.failf "stream died: %s"
                  (Serve.frame_error_to_string e)
            | Ok payload -> (
                match Serve.parse_response payload with
                | Error m -> Alcotest.failf "bad frame: %s" m
                | Ok resp ->
                    Alcotest.(check string)
                      "streamed frames are tagged with the request id"
                      "rz-1" (field_exn resp "id");
                    if Serve.field resp "reanalyze-done" = Some "1" then
                      (resp, List.rev acc)
                    else drain (resp :: acc))
          in
          let final, bindings = drain [] in
          Alcotest.(check (list string))
            "one frame per invalidated function, exact set"
            [
              "a.mc f edited"; "a.mc g edited"; "b.mc h cross:sig:g";
            ]
            (List.sort compare
               (List.map
                  (fun r ->
                    Printf.sprintf "%s %s %s" (field_exn r "file")
                      (field_exn r "function")
                      (field_exn r "reason"))
                  bindings));
          List.iter
            (fun r ->
              Alcotest.(check string)
                "per-function frames are ok" "ok" r.Serve.rs_status)
            bindings;
          Alcotest.(check string)
            "terminal frame: invalidated" "3" (field_exn final "invalidated");
          Alcotest.(check string)
            "terminal frame: cross-files" "1" (field_exn final "cross-files");
          Alcotest.(check string)
            "terminal frame: clean" "0" (field_exn final "clean");
          (* the terminal body carries each reassembled model; its
             digest must match a cold analysis of the same text *)
          let digest_of text = Digest.to_hex (Digest.string text) in
          List.iter
            (fun (path, text) ->
              let want =
                Printf.sprintf "\"python_digest\":\"%s\""
                  (digest_of (cold_python path text))
              in
              Alcotest.(check bool)
                (path ^ ": terminal body pins the cold digest")
                true
                (let body = final.Serve.rs_body in
                 let wn = String.length want and bn = String.length body in
                 let rec scan i =
                   i + wn <= bn
                   && (String.sub body i wn = want || scan (i + 1))
                 in
                 scan 0))
            [ ("a.mc", a_sig); ("b.mc", b0) ];
          (* counters made it to stats *)
          let stats = roundtrip_exn fd Serve.Stats in
          Alcotest.(check string)
            "stats: invalidated" "3" (field_exn stats "watch-invalidated");
          Alcotest.(check string)
            "stats: cross" "1" (field_exn stats "watch-cross");
          (* forget round-trips, idempotently *)
          let r = roundtrip_exn fd (Serve.Forget { fg_path = "c.mc" }) in
          Alcotest.(check string) "forget" "1" (field_exn r "forgotten");
          let r = roundtrip_exn fd (Serve.Forget { fg_path = "c.mc" }) in
          Alcotest.(check string)
            "forget twice" "0" (field_exn r "forgotten")))

let test_daemon_watch_from_disk () =
  with_server (fun socket ->
      with_conn socket (fun fd ->
          (* an empty body asks the daemon to read its own filesystem *)
          let path = temp_name "mira-watch-src" ^ ".mc" in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc c0);
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              let r =
                roundtrip_exn fd
                  (Serve.Watch { wt_path = path; wt_source = "" })
              in
              Alcotest.(check string) "watch from disk" "ok" r.Serve.rs_status;
              Alcotest.(check string)
                "one function" "1" (field_exn r "functions"));
          (* a missing file comes back as a structured io error *)
          let r =
            roundtrip_exn fd
              (Serve.Watch
                 { wt_path = temp_name "mira-no-such" ^ ".mc"; wt_source = "" })
          in
          Alcotest.(check string)
            "missing file is an error frame" "error" r.Serve.rs_status;
          (* an untagged reanalyze is refused: its responses stream *)
          let r =
            roundtrip_exn fd
              (Serve.Reanalyze { rz_path = "x.mc"; rz_source = c0 })
          in
          Alcotest.(check string)
            "untagged reanalyze is refused" "error" r.Serve.rs_status))

(* ---------- the event loop stays free of session work ---------- *)

(* one tagged request, written without waiting for its answer *)
let send_tagged fd id req = Serve.write_frame fd (Serve.encode_request ~id req)

(* the next response frame, or [None] when the socket's receive
   timeout expires first *)
let next_frame fd =
  match Serve.read_frame fd with
  | Error Serve.Timed_out -> None
  | Error e ->
      Alcotest.failf "stream died: %s" (Serve.frame_error_to_string e)
  | Ok payload -> (
      match Serve.parse_response payload with
      | Ok r -> Some r
      | Error m -> Alcotest.failf "bad frame: %s" m)

let next_frame_exn what fd =
  match next_frame fd with
  | Some r -> r
  | None -> Alcotest.failf "no answer to %s" what

let set_timeout fd seconds = Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds

(* Watch a file, replace it with a FIFO, and send a tagged, empty-body
   reanalyze of it on [fd]: reading the path now blocks until the FIFO
   is opened for writing, and the reanalyze holds the daemon-wide
   session slot all that time.  Watching first keeps the slot held
   whether the daemon checks "watched" before or after the read.  The
   returned release feeds the FIFO the watched text (a clean edit) once
   the daemon has it open, and removes it; it is idempotent, so it can
   also sit in a [finally]. *)
let hold_session fd =
  let path = temp_name "mira-watch-fifo" ^ ".mc" in
  let r = roundtrip_exn fd (Serve.Watch { wt_path = path; wt_source = c0 }) in
  Alcotest.(check string) "watch the file first" "ok" r.Serve.rs_status;
  Unix.mkfifo path 0o600;
  send_tagged fd "rz-fifo" (Serve.Reanalyze { rz_path = path; rz_source = "" });
  (* let the daemon start the read before anything else arrives *)
  Unix.sleepf 0.2;
  let released = ref false in
  fun () ->
    if not !released then begin
      released := true;
      (* a non-blocking open for writing fails (ENXIO) until the
         daemon's open for reading is in place; wait up to 5 s *)
      let rec feed tries =
        match Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
        | w ->
            ignore (Unix.write_substring w c0 0 (String.length c0));
            Unix.close w
        | exception Unix.Unix_error (Unix.ENXIO, _, _) when tries > 0 ->
            Unix.sleepf 0.01;
            feed (tries - 1)
        | exception Unix.Unix_error (Unix.ENXIO, _, _) -> ()
      in
      feed 500;
      try Sys.remove path with Sys_error _ -> ()
    end

let check_clean_terminal fd id =
  set_timeout fd 10.0;
  let r = next_frame_exn id fd in
  Alcotest.(check (option string)) "terminal frame id" (Some id)
    (Serve.field r "id");
  Alcotest.(check (option string))
    "the reanalyze ends with its terminal frame" (Some "1")
    (Serve.field r "reanalyze-done");
  Alcotest.(check (option string))
    "the unchanged text is a clean edit" (Some "1") (Serve.field r "clean")

let test_fifo_read_leaves_loop_free () =
  with_server (fun socket ->
      with_conn socket (fun a ->
          let release = hold_session a in
          Fun.protect ~finally:release (fun () ->
              let b = Serve.connect ~io_timeout_ms:1000 socket in
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close b with Unix.Unix_error _ -> ())
                (fun () ->
                  match Serve.roundtrip b Serve.Ping with
                  | Ok r ->
                      Alcotest.(check string)
                        "ping answered while the FIFO is held" "ok"
                        r.Serve.rs_status
                  | Error m ->
                      Alcotest.failf
                        "ping on a second connection failed while a \
                         reanalyze read a FIFO: %s"
                        m);
              release ();
              check_clean_terminal a "rz-fifo")))

let test_session_queue_waits () =
  with_server (fun socket ->
      with_conn socket (fun a ->
          let release = hold_session a in
          Fun.protect ~finally:release (fun () ->
              with_conn socket (fun b ->
                  set_timeout b 0.3;
                  send_tagged b "w-1"
                    (Serve.Watch { wt_path = "queued.mc"; wt_source = c0 });
                  send_tagged b "p-1" Serve.Ping;
                  let p = next_frame_exn "the ping" b in
                  Alcotest.(check (option string))
                    "the ping is answered first" (Some "p-1")
                    (Serve.field p "id");
                  (match next_frame b with
                  | None -> ()
                  | Some r ->
                      Alcotest.failf
                        "%s answered while the session slot was held"
                        (Option.value (Serve.field r "id") ~default:"?"));
                  release ();
                  set_timeout b 10.0;
                  let w = next_frame_exn "the queued watch" b in
                  Alcotest.(check (option string))
                    "the queued watch is answered once the slot frees"
                    (Some "w-1") (Serve.field w "id");
                  Alcotest.(check string) "watch ok" "ok" w.Serve.rs_status);
              check_clean_terminal a "rz-fifo")))

let test_unwatched_reanalyze_releases () =
  with_server (fun socket ->
      with_conn socket (fun fd ->
          set_timeout fd 10.0;
          send_tagged fd "rz-u"
            (Serve.Reanalyze { rz_path = "nowhere.mc"; rz_source = c0 });
          let r = next_frame_exn "the reanalyze" fd in
          Alcotest.(check string) "an error frame" "error" r.Serve.rs_status;
          Alcotest.(check (option string))
            "carrying the reanalyze's id" (Some "rz-u") (Serve.field r "id");
          let w =
            roundtrip_exn fd (Serve.Watch { wt_path = "c.mc"; wt_source = c0 })
          in
          Alcotest.(check string)
            "the next watch is answered" "ok" w.Serve.rs_status;
          Alcotest.(check (option string))
            "by the watch itself" (Some "c.mc") (Serve.field w "path")))

let test_clean_reanalyze_wire () =
  with_server (fun socket ->
      with_conn socket (fun fd ->
          set_timeout fd 10.0;
          ignore
            (roundtrip_exn fd
               (Serve.Watch { wt_path = "a.mc"; wt_source = a0 }));
          send_tagged fd "rz-c"
            (Serve.Reanalyze { rz_path = "a.mc"; rz_source = a0 });
          check_clean_terminal fd "rz-c";
          send_tagged fd "p-c" Serve.Ping;
          Alcotest.(check (option string))
            "no frame between the terminal and the next answer" (Some "p-c")
            (Serve.field (next_frame_exn "the ping" fd) "id")))

let () =
  Alcotest.run "watch"
    [
      ( "cross-file",
        [
          Alcotest.test_case "signature change" `Quick test_signature_change;
          Alcotest.test_case "annotation change" `Quick
            test_annotation_change;
          Alcotest.test_case "class change" `Quick test_class_change;
        ] );
      ( "within-file",
        [
          Alcotest.test_case "body-only edit" `Quick test_body_only_edit;
          Alcotest.test_case "clean edit" `Quick test_clean_edit;
          Alcotest.test_case "deleted function" `Quick test_deleted_function;
          Alcotest.test_case "added function" `Quick test_added_function;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "forget" `Quick test_forget;
          Alcotest.test_case "unwatched path" `Quick test_unwatched_path;
          Alcotest.test_case "broken edit keeps state" `Quick
            test_broken_edit_keeps_state;
          Alcotest.test_case "counters accumulate" `Quick
            test_counters_accumulate;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "watch/reanalyze/forget over the wire" `Quick
            test_daemon_watch_reanalyze;
          Alcotest.test_case "disk reads and refusals" `Quick
            test_daemon_watch_from_disk;
          Alcotest.test_case "a FIFO read leaves the loop free" `Quick
            test_fifo_read_leaves_loop_free;
          Alcotest.test_case "session verbs queue behind a held slot" `Quick
            test_session_queue_waits;
          Alcotest.test_case "an unwatched reanalyze releases its slot"
            `Quick test_unwatched_reanalyze_releases;
          Alcotest.test_case "a clean reanalyze sends only its terminal"
            `Quick test_clean_reanalyze_wire;
        ] );
    ]
