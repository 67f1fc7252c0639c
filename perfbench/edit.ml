(* edit_session: one editor applies a seeded stream of edits through
   [Session.reanalyze] to a watched project from the same generator.
   The analysis layers run one function at a time on stub-reduced
   programs here, and the session's plan and commit steps do the rest,
   so a change that trades whole-file speed for per-function speed (or
   the reverse) shows here and not in cold_batch. *)

open Mira_core

let project seed =
  Gen.project ~seed ~kernels:120 ~apps:30 ~bundled:false ~kernels_per_file:(2, 4) ()

(* per-mille shares of body, app and interface edits: p50 sits well
   inside the body edits and p90 inside the app edits *)
let body_pm = 780
let app_pm = 190
let nominal_rate = 150.0

let cls_id = function Gen.Body_edit -> 0 | Gen.App_edit -> 1 | Gen.Interface_edit -> 2
let cls_names = [| "body"; "app"; "interface" |]

(* Set-up: Session.create plus Session.watch of every file. *)
let setup rep pj =
  let t0 = Samples.now () in
  let s = Session.create () in
  Array.iter
    (fun fl ->
      match Session.watch s ~path:fl.Gen.fl_name (Gen.render fl) with
      | Ok _ -> ()
      | Error d -> Outcome.fail rep (fl.fl_name ^ ": watch failed: " ^ Diag.to_string d))
    pj.Gen.pj_files;
  (Samples.now () -. t0, s)

(* Warm models of a seeded sample of files must equal a cold Batch.run
   of the same text. *)
let warm_gate rep ~seed s pj ~samples =
  let rng = Random.State.make [| seed; 0x7761726d |] in
  let n = Array.length pj.Gen.pj_files in
  let ok = ref 0 in
  for _ = 1 to samples do
    let path = pj.pj_files.(Random.State.int rng n).fl_name in
    Outcome.attempt rep 1;
    match (Session.lookup s ~path, Session.source s ~path) with
    | Some info, Some text -> (
        match Cold.batch_one ~name:path text with
        | Ok a when String.equal a.Batch.a_python info.Session.in_python -> incr ok
        | Ok _ -> Outcome.fail rep (path ^ ": warm model differs from cold Batch.run")
        | Error m -> Outcome.fail rep (path ^ ": cold Batch.run failed: " ^ m))
    | _ -> Outcome.fail rep (path ^ ": not watched")
  done;
  Outcome.line "gate warm: %d of %d sampled warm models equal a cold Batch.run" !ok samples

let check_update rep (ed : Gen.edit) path n_inval failed =
  if failed > 0 then Outcome.fail rep (Printf.sprintf "%s: %d recomputation(s) failed" path failed)
  else if n_inval <> ed.Gen.ed_expected then
    Outcome.fail rep
      (Printf.sprintf "%s: %s edit invalidated %d function(s), expected %d" path
         (Gen.edit_class_name ed.ed_class) n_inval ed.ed_expected)

let prepare rep ~seed ~seconds =
  let pj = project seed in
  let setup_s, s = setup rep pj in
  let n = max 1 (int_of_float (Float.round (seconds *. nominal_rate))) in
  let edits = Gen.edit_stream pj ~seed ~n ~body_pm ~app_pm in
  (setup_s, pj, s, edits)

let run_untraced rep ~seed ~seconds ~setup_probe =
  let setup_own, pj, s, edits = prepare rep ~seed ~seconds in
  let setups = setup_own :: setup_probe () in
  let n = Array.length edits in
  let lat = Samples.create n in
  let cls = Array.make n 0 in
  let t0 = Samples.now () in
  let busy = ref 0.0 in
  Array.iteri
    (fun k (ed : Gen.edit) ->
      (* rendering the edited text is the editor's work, not timed *)
      let text = Gen.apply pj ed in
      let path = pj.Gen.pj_files.(ed.ed_file).fl_name in
      let a = Samples.now () in
      let r = Session.reanalyze s ~path text in
      let dt = Samples.now () -. a in
      busy := !busy +. dt;
      Samples.add lat dt;
      cls.(k) <- cls_id ed.ed_class;
      match r with
      | Ok u -> check_update rep ed path (List.length u.Session.up_invalidated) u.up_failed
      | Error d -> Outcome.fail rep (path ^ ": reanalyze failed: " ^ Diag.to_string d))
    edits;
  let wall = Samples.now () -. t0 in
  Outcome.attempt rep n;
  warm_gate rep ~seed s pj ~samples:24;
  Outcome.class_report ~what:"edit_session" lat cls cls_names;
  Outcome.line "edit_session: %d edits in %.2f s (%.2f s inside reanalyze); set-ups %s" n wall !busy
    (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  Outcome.end_to_end rep ~setups ~ops:n ~wall ~lat ~rss:(Samples.peak_rss_mb ())

let layers = [| "session.plan"; "session.recompute"; "session.commit"; "edit" |]
let l_plan = 0 and l_recompute = 1 and l_commit = 2 and l_edit = 3

let moves = function
  | "session.plan" -> "latency_p50_ms"
  | "session.recompute" -> "latency_p50_ms (kernel edits), latency_p90_ms (app edits)"
  | "session.commit" -> "latency_p90_ms"
  | _ -> ""

(* [reanalyze] replaced by its three public steps, each in a span. *)
let run_traced rep ~seed ~seconds =
  let _, pj, s, edits = prepare rep ~seed ~seconds in
  let n = Array.length edits in
  let tr = Trace.create ~names:layers ~cap:(n * 64) in
  let roots = Samples.create n in
  let rcls = Array.make n 0 in
  let inval = ref 0 and cross = ref 0 and recomputed = ref 0 in
  Array.iteri
    (fun k (ed : Gen.edit) ->
      let text = Gen.apply pj ed in
      let path = pj.Gen.pj_files.(ed.ed_file).fl_name in
      let c0 = Session.counters s in
      Trace.set_tag tr (cls_id ed.ed_class);
      let a = Samples.now () in
      let r =
        Trace.span tr l_edit (fun () ->
            match Trace.span tr l_plan (fun () -> Session.plan s ~path text) with
            | Error d -> Error d
            | Ok plan ->
                let results =
                  List.map
                    (fun iv -> (iv, Trace.span tr l_recompute (fun () -> Session.recompute s plan iv)))
                    (Session.plan_invalidated plan)
                in
                Ok (Trace.span tr l_commit (fun () -> Session.commit s plan results)))
      in
      Samples.add roots (Samples.now () -. a);
      rcls.(k) <- cls_id ed.ed_class;
      let c1 = Session.counters s in
      inval := !inval + c1.Session.ct_invalidated - c0.Session.ct_invalidated;
      cross := !cross + c1.ct_cross - c0.ct_cross;
      recomputed := !recomputed + c1.ct_recomputed - c0.ct_recomputed;
      match r with
      | Ok u -> check_update rep ed path (List.length u.Session.up_invalidated) u.up_failed
      | Error d -> Outcome.fail rep (path ^ ": plan failed: " ^ Diag.to_string d))
    edits;
  Outcome.attempt rep n;
  warm_gate rep ~seed s pj ~samples:24;
  let agg = Trace.aggregate tr in
  let total = Array.fold_left (fun acc (g : Trace.agg) -> acc +. g.a_time) 0.0 agg in
  let per v = v /. float_of_int n in
  Array.iteri
    (fun i name ->
      if i <> l_edit then begin
        let g = agg.(i) in
        Outcome.metric rep (name ^ ".ms") "ms" (1000.0 *. per g.Trace.a_time);
        Outcome.metric rep (name ^ ".share") "fraction" (g.a_time /. total);
        Outcome.metric rep (name ^ ".alloc_kw") "kword" (per g.a_words /. 1000.0);
        Outcome.line "  moves: edit_session %s.* -> %s" name (moves name)
      end)
    layers;
  Outcome.metric rep "session.invalidated" "count" (per (float_of_int !inval));
  Outcome.metric rep "session.cross" "count" (per (float_of_int !cross));
  Outcome.metric rep "session.recomputed" "count" (per (float_of_int !recomputed));
  Array.iteri
    (fun c name ->
      Outcome.metric rep (Printf.sprintf "edit.%s.p50_ms" name) "ms"
        (1000.0 *. Samples.class_quantile roots rcls c 0.5))
    cls_names;
  Outcome.line
    "  moves: edit_session session.cross -> latency_p90_ms; session state -> peak_rss_mb; cold_batch layers -> setup_s";
  Outcome.line "edit_session traced: %d edits, %d spans (%d dropped)" n tr.Trace.n tr.dropped;
  tr
