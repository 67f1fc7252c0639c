(* cold_batch: one caller runs [Batch.run ~jobs:1] with no cache, one
   source per call, over several full passes of a seeded project —
   the first [mira batch] over a project.  Front end, codegen,
   object-file decoding and metric generation do all the work; no
   cache, session or daemon code runs. *)

open Mira_core

type src = { s_name : string; s_text : string; s_cls : Gen.fclass }

let project seed =
  Gen.project ~seed ~kernels:120 ~apps:30 ~bundled:true ~kernels_per_file:(2, 4) ()

let sources pj =
  Array.map
    (fun fl -> { s_name = fl.Gen.fl_name; s_text = Gen.render fl; s_cls = fl.Gen.fl_class })
    pj.Gen.pj_files

let cls_id = function Gen.Kernel_file -> 0 | Gen.App_file -> 1 | Gen.Bundled_file -> 2
let cls_names = [| "kernel"; "app"; "bundled" |]

let batch_one ~name text =
  match Batch.run ~jobs:1 [ { Batch.src_name = name; src_text = text } ] with
  | [ Ok a ], _ -> Ok a
  | [ Error (_, d) ], _ -> Error (Diag.to_string d)
  | _ -> Error "unexpected batch result shape"

(* Set-up as a user pays it: the first cold pass in a fresh process. *)
let first_pass srcs =
  let t0 = Samples.now () in
  let res = Array.map (fun s -> batch_one ~name:s.s_name s.s_text) srcs in
  (Samples.now () -. t0, res)

(* [passes] full passes, each in its own seeded order *)
let order ~seed ~n ~passes =
  let rng = Random.State.make [| seed; 0x636f6c64 |] in
  let o = Array.make (n * passes) 0 in
  for p = 0 to passes - 1 do
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    Array.blit perm 0 o (p * n) n
  done;
  o

(* ---------- correctness gates (untimed) ---------- *)

(* The model of each sampled generated function, evaluated at a small
   size, must equal the VM's executed counts exactly. *)
let vm_matches (fl : Gen.file) text (fn : Gen.func) model =
  let open Mira_vm in
  let vm = Vm.load_object (Mira_codegen.Codegen.compile_to_object text) in
  let env, args =
    match (fn.Gen.fn_kind, fl.Gen.fl_app) with
    | Gen.Assemble, Some (d, r) ->
        let side = 3 in
        let cells = int_of_float (float_of_int side ** float_of_int d) in
        let pts = int_of_float (float_of_int ((2 * r) + 1) ** float_of_int d) in
        let rp = Vm.zeros_i vm (cells + 1) in
        let ci = Vm.zeros_i vm (cells * pts) in
        let vs = Vm.zeros_f vm (cells * pts) in
        ( List.map (fun p -> (p, side)) fn.fn_params,
          List.map (fun _ -> Vm.Int side) fn.fn_params @ [ Vm.Int rp; Int ci; Int vs ] )
    | _ ->
        let n = 6 in
        let size = (2 * n) + 32 in
        let a = Vm.alloc_floats vm (Array.make size 1.0) in
        let b = Vm.alloc_floats vm (Array.make size 2.0) in
        let p = Vm.alloc_ints vm (Array.make size 3) in
        ([ ("n", n) ], [ Vm.Int a; Int b; Int p; Int n ])
  in
  ignore (Vm.call vm fn.fn_name args);
  let prof = Option.get (Vm.profile_of vm fn.fn_name) in
  let static = Model_eval.eval model ~fname:fn.fn_name ~env in
  List.for_all
    (fun mn -> Model_eval.count static mn = float_of_int (Vm.count_of prof mn))
    (List.sort_uniq compare (List.map fst static @ List.map fst prof.Vm.inclusive))

let vm_gate rep ~seed pj (models : Model_ir.t option array) ~samples =
  let rng = Random.State.make [| seed; 0x766d |] in
  let cands =
    Array.of_list
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i (fl : Gen.file) ->
                 List.filter_map
                   (fun (fn : Gen.func) ->
                     match fn.fn_kind with
                     | Gen.Kernel | Gen.Assemble -> Some (i, fn)
                     | Gen.Helper | Gen.Shared -> None)
                   (Array.to_list fl.fl_funcs))
               pj.Gen.pj_files)))
  in
  let ok = ref 0 in
  for _ = 1 to samples do
    let i, fn = cands.(Random.State.int rng (Array.length cands)) in
    let fl = pj.pj_files.(i) in
    Outcome.attempt rep 1;
    match models.(i) with
    | None -> Outcome.fail rep (fl.fl_name ^ ": no model for the VM gate")
    | Some m -> (
        match vm_matches fl (Gen.render fl) fn m with
        | true -> incr ok
        | false -> Outcome.fail rep (Printf.sprintf "%s %s: model differs from VM counts" fl.fl_name fn.fn_name)
        | exception e ->
            Outcome.fail rep (Printf.sprintf "%s %s: VM gate raised %s" fl.fl_name fn.fn_name (Printexc.to_string e)))
  done;
  Outcome.line "gate vm: %d of %d sampled functions match the VM exactly" !ok samples

(* ---------- the traced pipeline ---------- *)

(* The sequence of public functions [Batch.run] reaches for one source
   with no cache: [Input_processor.prepare], the compiler's own
   parse/fold/typecheck inside [Codegen.compile], the O1 backend, the
   object-file round trip, and metric generation. *)
let layers =
  [| "parser"; "fold"; "typecheck"; "fingerprint"; "emit"; "liveness"; "peephole";
     "objfile.encode"; "binast.decode"; "bridge"; "metric_gen.part";
     "metric_gen.assemble"; "python_emit"; "source" |]

let l_parser = 0 and l_fold = 1 and l_typecheck = 2 and l_fingerprint = 3
and l_emit = 4 and l_liveness = 5 and l_peephole = 6 and l_encode = 7
and l_decode = 8 and l_bridge = 9 and l_part = 10 and l_assemble = 11
and l_python = 12 and l_source = 13

type counts = { mutable insns : int; mutable entries : int; mutable bytes : int }

let traced_analyze tr cn ~name text =
  let open Mira_srclang in
  let span l f = Trace.span tr l f in
  let front () =
    let parsed = span l_parser (fun () -> Parser.parse text) in
    let folded = span l_fold (fun () -> Mira_codegen.Fold.program parsed) in
    span l_typecheck (fun () -> Typecheck.check_exn folded)
  in
  let ast = front () in
  ignore (span l_fingerprint (fun () -> Fingerprint.context_of_program ast));
  let compiled = front () in
  let prog = span l_emit (fun () -> Mira_codegen.Emit.program ~addressing_fold:true compiled) in
  let prog = span l_liveness (fun () -> Mira_codegen.Liveness.program prog) in
  let prog = span l_peephole (fun () -> Mira_codegen.Peephole.program prog) in
  let obj = span l_encode (fun () -> Mira_visa.Objfile.encode prog) in
  let binast = span l_decode (fun () -> Mira_visa.Binast.of_object obj) in
  let bridge = span l_bridge (fun () -> Bridge.create binast) in
  let parts =
    List.map
      (fun f -> span l_part (fun () -> Metric_gen.build_part ast bridge f))
      (Ast.all_functions ast)
  in
  let model = span l_assemble (fun () -> Metric_gen.assemble ~source_name:name parts) in
  let py = span l_python (fun () -> Python_emit.emit model) in
  cn.insns <- cn.insns + List.fold_left (fun n f -> n + List.length f.Mira_visa.Binast.finsns) 0 binast.bfuncs;
  cn.entries <-
    cn.entries + List.fold_left (fun n f -> n + List.length f.Model_ir.mf_entries) 0 model.Model_ir.functions;
  cn.bytes <- cn.bytes + String.length py;
  py

(* ---------- runs ---------- *)

type state = {
  srcs : src array;
  expected : string array;  (** Batch.run's Python per source *)
}

let prepare rep ~seed ~vm_samples =
  let pj = project seed in
  let srcs = sources pj in
  let setup_s, res = first_pass srcs in
  let expected =
    Array.mapi
      (fun i r ->
        match r with
        | Ok a -> a.Batch.a_python
        | Error m ->
            Outcome.fail rep (srcs.(i).s_name ^ ": " ^ m);
            "")
      res
  in
  let models = Array.map (function Ok a -> Some a.Batch.a_model | Error _ -> None) res in
  Outcome.attempt rep (Array.length srcs);
  vm_gate rep ~seed pj models ~samples:vm_samples;
  (setup_s, { srcs; expected })

let ops_for st ~seconds ~rate =
  let n = Array.length st.srcs in
  max 1 (int_of_float (Float.round (seconds *. rate /. float_of_int n)))

let nominal_rate = 150.0

(* The untraced loop: returns (wall seconds, latency samples, classes). *)
let measure rep st ~seed ~passes =
  let o = order ~seed ~n:(Array.length st.srcs) ~passes in
  let lat = Samples.create (Array.length o) in
  let cls = Array.make (Array.length o) 0 in
  let t0 = Samples.now () in
  Array.iteri
    (fun k i ->
      let s = st.srcs.(i) in
      let a = Samples.now () in
      let r = batch_one ~name:s.s_name s.s_text in
      Samples.add lat (Samples.now () -. a);
      cls.(k) <- cls_id s.s_cls;
      match r with
      | Ok an when String.equal an.Batch.a_python st.expected.(i) -> ()
      | Ok _ -> Outcome.fail rep (s.s_name ^ ": Python differs from the first pass")
      | Error m -> Outcome.fail rep (s.s_name ^ ": " ^ m))
    o;
  let wall = Samples.now () -. t0 in
  Outcome.attempt rep (Array.length o);
  (wall, lat, cls)

let run_untraced rep ~seed ~seconds ~setup_probe =
  let setup_own, st = prepare rep ~seed ~vm_samples:30 in
  let setups = setup_own :: setup_probe () in
  let passes = ops_for st ~seconds ~rate:nominal_rate in
  let wall, lat, cls = measure rep st ~seed ~passes in
  let n = Samples.count lat in
  Outcome.class_report ~what:"cold_batch" lat cls cls_names;
  Outcome.line "cold_batch: %d sources x %d passes = %d samples in %.2f s; set-ups %s" (Array.length st.srcs)
    passes n wall
    (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  Outcome.end_to_end rep ~setups ~ops:n ~wall ~lat ~rss:(Samples.peak_rss_mb ())

(* Which end-to-end metric each layer metric should move (cold_batch). *)
let moves = function
  | "metric_gen.part" | "metric_gen.assemble" | "python_emit" ->
      "latency_p90_ms, throughput_per_s, setup_s (apps set the tail)"
  | _ -> "latency_p50_ms, throughput_per_s, setup_s (kernels set the median)"

let profile_lines ~title tr ~keep =
  let agg = Trace.aggregate ~keep tr in
  let total = Array.fold_left (fun s (g : Trace.agg) -> s +. g.a_time) 0.0 agg in
  let rows =
    List.filter (fun i -> i <> l_source) (List.init (Array.length layers) Fun.id)
    |> List.map (fun i -> (i, agg.(i).Trace.a_time))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Outcome.line "profile (%s): self time share of traced analysis, ranked" title;
  List.iteri
    (fun r (i, t) ->
      Outcome.line "  %2d. %-20s %5.1f%%  %8.3f ms total" (r + 1) layers.(i)
        (100.0 *. t /. max 1e-12 total) (1000.0 *. t))
    rows

let run_traced rep ~seed ~seconds =
  let _, st = prepare rep ~seed ~vm_samples:10 in
  let n = Array.length st.srcs in
  let passes = ops_for st ~seconds:(seconds /. 2.0) ~rate:nominal_rate in
  (* gate: the traced pipeline reproduces Batch.run byte for byte *)
  let gate_tr = Trace.create ~names:layers ~cap:1 in
  let gate_cn = { insns = 0; entries = 0; bytes = 0 } in
  let same = ref 0 in
  Array.iteri
    (fun i s ->
      Outcome.attempt rep 1;
      match traced_analyze gate_tr gate_cn ~name:s.s_name s.s_text with
      | py when String.equal py st.expected.(i) -> incr same
      | _ -> Outcome.fail rep (s.s_name ^ ": traced Python differs from Batch.run")
      | exception e -> Outcome.fail rep (s.s_name ^ ": traced pipeline raised " ^ Printexc.to_string e))
    st.srcs;
  Outcome.line "gate traced: %d of %d sources byte-identical to Batch.run" !same n;
  (* untraced reference for trace.overhead, then the traced loop *)
  let wall_u, lat_u, _ = measure rep st ~seed ~passes in
  let o = order ~seed:(seed + 1) ~n ~passes in
  let tr = Trace.create ~names:layers ~cap:(Array.length o * 40) in
  let cn = { insns = 0; entries = 0; bytes = 0 } in
  let roots = Samples.create (Array.length o) in
  let rcls = Array.make (Array.length o) 0 in
  let t0 = Samples.now () in
  Array.iteri
    (fun k i ->
      let s = st.srcs.(i) in
      Trace.set_tag tr (cls_id s.s_cls);
      let a = Samples.now () in
      (match Trace.span tr l_source (fun () -> traced_analyze tr cn ~name:s.s_name s.s_text) with
      | py when String.equal py st.expected.(i) -> ()
      | _ -> Outcome.fail rep (s.s_name ^ ": traced Python differs")
      | exception e -> Outcome.fail rep (s.s_name ^ ": " ^ Printexc.to_string e));
      Samples.add roots (Samples.now () -. a);
      rcls.(k) <- cls_id s.s_cls)
    o;
  let wall_t = Samples.now () -. t0 in
  let ops = Array.length o in
  Outcome.attempt rep ops;
  let agg = Trace.aggregate tr in
  let total = Array.fold_left (fun s (g : Trace.agg) -> s +. g.a_time) 0.0 agg in
  Array.iteri
    (fun i name ->
      if i <> l_source then begin
        let g = agg.(i) in
        Outcome.metric rep (name ^ ".ms") "ms" (1000.0 *. g.Trace.a_time /. float_of_int ops);
        Outcome.metric rep (name ^ ".share") "fraction" (g.a_time /. total);
        Outcome.metric rep (name ^ ".alloc_kw") "kword" (g.a_words /. 1000.0 /. float_of_int ops)
      end)
    layers;
  Outcome.metric rep "binast.insns" "count" (float_of_int cn.insns /. float_of_int ops);
  Outcome.metric rep "model.entries" "count" (float_of_int cn.entries /. float_of_int ops);
  Outcome.metric rep "python_emit.bytes" "bytes" (float_of_int cn.bytes /. float_of_int ops);
  Outcome.metric rep "class.kernel.p50_ms" "ms" (1000.0 *. Samples.class_quantile roots rcls 0 0.5);
  Outcome.metric rep "class.app.p50_ms" "ms" (1000.0 *. Samples.class_quantile roots rcls 1 0.5);
  let overhead = (float_of_int ops /. wall_t) /. (float_of_int (Samples.count lat_u) /. wall_u) in
  Outcome.metric rep "trace.overhead" "ratio" overhead;
  Outcome.line "cold_batch traced: %d sources, %d spans (%d dropped), overhead %.3f (traced %.1f/s vs untraced %.1f/s)"
    ops tr.Trace.n tr.dropped overhead (float_of_int ops /. wall_t)
    (float_of_int (Samples.count lat_u) /. wall_u);
  profile_lines ~title:"kernel sources" tr ~keep:(fun c -> c = 0);
  profile_lines ~title:"app sources" tr ~keep:(fun c -> c = 1);
  Array.iter
    (fun name ->
      if name <> "source" then Outcome.line "  moves: cold_batch %s.* -> %s; *.alloc_kw -> peak_rss_mb (weakly)" name (moves name))
    layers;
  tr
