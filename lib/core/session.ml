(* Long-lived incremental analysis sessions (watch mode).

   A session holds, per watched file: the source text, the prepared
   (parsed, folded, typechecked) AST, the per-function fingerprint
   table, the per-function model parts and the assembled model — plus
   the file's exported interface
   ({!Mira_srclang.Fingerprint.interface_of_program}) and each
   function's cross-file reference set ({!Fingerprint.func_refs}).
   It keeps no Python: {!info_of} and {!commit} render the models
   they report.

   A file is first analyzed whole, as a cold batch source is
   ([Input_processor.parts] → [Metric_gen.assemble]).  Reanalysis is
   function-granular, as a cached batch miss is:
   [Input_processor.prepare] → [function_digest] diff →
   [Input_processor.function_part] per invalidated function →
   [Metric_gen.assemble].  So every warm model is byte-identical to a
   cold whole-file analysis: parts are a pure function of (function,
   closure) and the assembly fixpoint reruns over the full part set.

   Cross-file invalidation is name-based and conservative: each file
   is a self-contained program, but projects repeat shared
   declarations textually (the C-header discipline), so when file B's
   exported [sig:g] / [class:C] / [extern:x] / [ann:f] digest changes,
   every function in another file whose reference set contains that
   key is re-analyzed.  A dependent whose own source is unchanged
   recomputes an identical part (sound over-approximation), which is
   precisely what makes the byte-identity invariant testable alongside
   the invalidation counters.

   The three-phase API ({!plan} → {!recompute}* → {!commit}) lets the
   serve daemon run recomputations on its worker pool while all
   session-state reads and writes stay behind the internal mutex;
   {!reanalyze} composes the three for in-process callers (the
   [mira watch] CLI, tests, benchmarks). *)

type counters = {
  ct_files : int;  (* currently watched *)
  ct_reanalyses : int;  (* committed reanalyze calls *)
  ct_invalidated : int;  (* cumulative invalidated functions *)
  ct_local : int;  (* … of which same-file *)
  ct_cross : int;  (* … of which cross-file dependents *)
  ct_recomputed : int;  (* function recomputations performed *)
  ct_clean : int;  (* reanalyzes that invalidated nothing *)
}

let zero_counters =
  {
    ct_files = 0;
    ct_reanalyses = 0;
    ct_invalidated = 0;
    ct_local = 0;
    ct_cross = 0;
    ct_recomputed = 0;
    ct_clean = 0;
  }

type reason = Edited | Added | Cross of string

let reason_to_string = function
  | Edited -> "edited"
  | Added -> "added"
  | Cross key -> "cross:" ^ key

type inval = { iv_file : string; iv_func : string; iv_reason : reason }

type fstate = {
  f_source : string;
  f_prepared : Input_processor.prepared;
  f_digests : (string * string) list;  (* mangled name -> digest *)
  f_parts : (string * Metric_gen.part) list;  (* program order *)
  f_interface : (string * string) list;
  f_refs : (string * string list) list;
  f_model : Model_ir.t;
}

type t = {
  s_mu : Mutex.t;
  s_level : Mira_codegen.Codegen.level;
  s_limits : Limits.t;
  s_files : (string, fstate) Hashtbl.t;
  mutable s_counters : counters;
}

type info = {
  in_path : string;
  in_functions : string list;
  in_model : Model_ir.t;
  in_python : string;
}

type plan = {
  pl_path : string;
  pl_source : string;
  pl_prepared : Input_processor.prepared;
  pl_digests : (string * string) list;
  pl_interface : (string * string) list;
  pl_refs : (string * string list) list;
  pl_invalidated : inval list;
  pl_deleted : string list;
  pl_changed_keys : string list;
}

type update = {
  up_path : string;
  up_invalidated : inval list;
  up_recomputed : int;
  up_failed : int;
  up_cross_files : string list;
  up_deleted : string list;
  up_clean : bool;
  up_models : (string * Model_ir.t * string) list;
}

let create ?(level = Mira_codegen.Codegen.O1) ?(limits = Limits.default) () =
  {
    s_mu = Mutex.create ();
    s_level = level;
    s_limits = limits;
    s_files = Hashtbl.create 16;
    s_counters = zero_counters;
  }

let locked t f =
  Mutex.lock t.s_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.s_mu) f

(* every analysis runs under a fresh budget, exactly as one Batch
   source does: a hostile edit becomes a diagnostic, never a hang *)
let with_budget t f = Limits.Budget.install (Limits.budget t.s_limits) f

let salt = "mira-session-1"

(* What an edit is diffed against: per-function digests, the exported
   interface, and per-function cross-file reference sets. *)
let tables pr =
  let ast = pr.Input_processor.pr_ast in
  let by_function g =
    List.map
      (fun f -> (Mira_srclang.Ast.mangle f, g f))
      (Mira_srclang.Ast.all_functions ast)
  in
  ( by_function (Input_processor.function_digest pr ~salt),
    Mira_srclang.Fingerprint.interface_of_program ast,
    by_function (Mira_srclang.Fingerprint.func_refs ast) )

(* Whole-file analysis, producing the full file state: Batch's cold
   path (one compilation, every function's part, assemble) plus the
   tables. *)
let build_state t ~path text =
  let pr = Input_processor.prepare ~level:t.s_level text in
  let _, parts = Input_processor.parts pr in
  let model = Metric_gen.assemble ~source_name:path parts in
  let digests, interface, refs = tables pr in
  {
    f_source = text;
    f_prepared = pr;
    f_digests = digests;
    f_parts = List.map (fun p -> (p.Metric_gen.fp_name, p)) parts;
    f_interface = interface;
    f_refs = refs;
    f_model = model;
  }

let info_of path st =
  {
    in_path = path;
    in_functions = List.map fst st.f_parts;
    in_model = st.f_model;
    in_python = Python_emit.emit st.f_model;
  }

let watch t ~path text =
  match with_budget t (fun () -> build_state t ~path text) with
  | exception e -> Error (Diag.of_exn e)
  | st ->
      locked t (fun () ->
          let fresh = not (Hashtbl.mem t.s_files path) in
          Hashtbl.replace t.s_files path st;
          if fresh then
            t.s_counters <-
              { t.s_counters with ct_files = t.s_counters.ct_files + 1 });
      Ok (info_of path st)

let forget t ~path =
  locked t (fun () ->
      let existed = Hashtbl.mem t.s_files path in
      if existed then begin
        Hashtbl.remove t.s_files path;
        t.s_counters <-
          { t.s_counters with ct_files = t.s_counters.ct_files - 1 }
      end;
      existed)

let paths t =
  locked t (fun () ->
      List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) t.s_files []))

let lookup t ~path =
  locked t (fun () -> Hashtbl.find_opt t.s_files path)
  |> Option.map (info_of path)

let counters t = locked t (fun () -> t.s_counters)

let source t ~path =
  locked t (fun () -> Hashtbl.find_opt t.s_files path)
  |> Option.map (fun st -> st.f_source)

let not_watched path =
  Diag.make Diag.Driver Diag.User_error
    (Printf.sprintf "not watched: %s (use watch first)" path)

let plan t ~path text =
  let watched = locked t (fun () -> Hashtbl.mem t.s_files path) in
  if not watched then Error (not_watched path)
  else
    match
      with_budget t (fun () ->
          let pr = Input_processor.prepare ~level:t.s_level text in
          let digests, interface, refs = tables pr in
          (pr, digests, interface, refs))
    with
    | exception e -> Error (Diag.of_exn e)
    | pr, digests, interface, refs ->
        locked t (fun () ->
            match Hashtbl.find_opt t.s_files path with
            | None -> Error (not_watched path)
            | Some old ->
                let edited =
                  List.filter_map
                    (fun (n, d) ->
                      match List.assoc_opt n old.f_digests with
                      | Some od when od = d -> None
                      | Some _ ->
                          Some
                            { iv_file = path; iv_func = n; iv_reason = Edited }
                      | None ->
                          Some
                            { iv_file = path; iv_func = n; iv_reason = Added })
                    digests
                in
                let deleted =
                  List.filter_map
                    (fun (n, _) ->
                      if List.mem_assoc n digests then None else Some n)
                    old.f_digests
                in
                let changed_keys =
                  (* changed or added keys, plus removed ones: a
                     dependent referencing a vanished declaration
                     re-analyzes too *)
                  List.filter_map
                    (fun (k, d) ->
                      match List.assoc_opt k old.f_interface with
                      | Some od when od = d -> None
                      | _ -> Some k)
                    interface
                  @ List.filter_map
                      (fun (k, _) ->
                        if List.mem_assoc k interface then None else Some k)
                      old.f_interface
                in
                let cross =
                  if changed_keys = [] then []
                  else
                    Hashtbl.fold
                      (fun p st acc ->
                        if p = path then acc else (p, st) :: acc)
                      t.s_files []
                    |> List.sort (fun (a, _) (b, _) -> compare a b)
                    |> List.concat_map (fun (p, st) ->
                           List.filter_map
                             (fun (fn, frefs) ->
                               match
                                 List.find_opt
                                   (fun k -> List.mem k frefs)
                                   changed_keys
                               with
                               | Some k ->
                                   Some
                                     {
                                       iv_file = p;
                                       iv_func = fn;
                                       iv_reason = Cross k;
                                     }
                               | None -> None)
                             st.f_refs)
                in
                Ok
                  {
                    pl_path = path;
                    pl_source = text;
                    pl_prepared = pr;
                    pl_digests = digests;
                    pl_interface = interface;
                    pl_refs = refs;
                    pl_invalidated = edited @ cross;
                    pl_deleted = deleted;
                    pl_changed_keys = changed_keys;
                  })

let plan_invalidated pl = pl.pl_invalidated

let find_func ast name =
  List.find_opt
    (fun f -> Mira_srclang.Ast.mangle f = name)
    (Mira_srclang.Ast.all_functions ast)

(* Pure recomputation of one invalidated function's part.  Thread-safe
   (the daemon runs these on its worker pool): session state is only
   read, briefly, under the mutex; [prepared] records are immutable so
   a snapshot stays valid across a concurrent commit. *)
let recompute t plan inv =
  let work () =
    let pr =
      if inv.iv_file = plan.pl_path then plan.pl_prepared
      else
        match
          locked t (fun () -> Hashtbl.find_opt t.s_files inv.iv_file)
        with
        | Some st -> st.f_prepared
        | None ->
            failwith
              (Printf.sprintf "%s was forgotten mid-reanalysis" inv.iv_file)
    in
    match find_func pr.Input_processor.pr_ast inv.iv_func with
    | Some f -> Input_processor.function_part pr f
    | None ->
        failwith
          (Printf.sprintf "no function %s in %s" inv.iv_func inv.iv_file)
  in
  match with_budget t work with
  | part -> Ok part
  | exception e -> Error (Diag.of_exn e)

let distinct xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* Apply a finished plan.  [results] pairs every planned invalidation
   with its recomputation outcome (order free).  A file's state is
   replaced only when every one of its invalidated functions
   succeeded; a failure leaves that file's last good model in place
   and is reported in [up_failed].  Counters update under the same
   lock, so a stats probe races with a commit atomically. *)
let commit t plan results =
  locked t (fun () ->
      let part_of inv =
        List.find_map
          (fun (i, r) ->
            if i.iv_file = inv.iv_file && i.iv_func = inv.iv_func then
              match r with Ok p -> Some p | Error _ -> None
            else None)
          results
      in
      let failed =
        List.length
          (List.filter (fun (_, r) -> Result.is_error r) results)
      in
      let invals_of file =
        List.filter (fun iv -> iv.iv_file = file) plan.pl_invalidated
      in
      let file_ok file =
        List.for_all
          (fun iv -> Option.is_some (part_of iv))
          (invals_of file)
      in
      let touched = ref [] in
      let recomputed = ref 0 in
      (* the edited file: refresh source/digests/interface/refs even
         on a clean edit; rebuild the model when anything changed *)
      (match Hashtbl.find_opt t.s_files plan.pl_path with
      | None -> () (* forgotten mid-flight: drop the update *)
      | Some old ->
          let local = invals_of plan.pl_path in
          if file_ok plan.pl_path then begin
            let dirty = local <> [] || plan.pl_deleted <> [] in
            let parts =
              List.map
                (fun (name, _) ->
                  match
                    part_of { iv_file = plan.pl_path; iv_func = name;
                              iv_reason = Edited }
                  with
                  | Some p ->
                      incr recomputed;
                      (name, p)
                  | None -> (name, List.assoc name old.f_parts))
                plan.pl_digests
            in
            let model =
              if dirty then
                Metric_gen.assemble ~source_name:plan.pl_path
                  (List.map snd parts)
              else old.f_model
            in
            Hashtbl.replace t.s_files plan.pl_path
              {
                f_source = plan.pl_source;
                f_prepared = plan.pl_prepared;
                f_digests = plan.pl_digests;
                f_parts = parts;
                f_interface = plan.pl_interface;
                f_refs = plan.pl_refs;
                f_model = model;
              };
            if dirty then touched := (plan.pl_path, model) :: !touched
          end);
      (* cross-file dependents, in plan (sorted-path) order *)
      let cross_files =
        distinct
          (List.filter_map
             (fun iv ->
               if iv.iv_file = plan.pl_path then None else Some iv.iv_file)
             plan.pl_invalidated)
      in
      List.iter
        (fun file ->
          match Hashtbl.find_opt t.s_files file with
          | None -> ()
          | Some old when file_ok file ->
              let parts =
                List.map
                  (fun (name, old_part) ->
                    match
                      part_of
                        { iv_file = file; iv_func = name; iv_reason = Edited }
                    with
                    | Some p ->
                        incr recomputed;
                        (name, p)
                    | None -> (name, old_part))
                  old.f_parts
              in
              let model =
                Metric_gen.assemble ~source_name:file (List.map snd parts)
              in
              Hashtbl.replace t.s_files file
                { old with f_parts = parts; f_model = model };
              touched := (file, model) :: !touched
          | Some _ -> ())
        cross_files;
      let local, cross =
        List.partition (fun iv -> iv.iv_file = plan.pl_path) plan.pl_invalidated
      in
      let clean = plan.pl_invalidated = [] && plan.pl_deleted = [] in
      let c = t.s_counters in
      t.s_counters <-
        {
          c with
          ct_reanalyses = c.ct_reanalyses + 1;
          ct_invalidated = c.ct_invalidated + List.length plan.pl_invalidated;
          ct_local = c.ct_local + List.length local;
          ct_cross = c.ct_cross + List.length cross;
          ct_recomputed = c.ct_recomputed + !recomputed;
          ct_clean = (c.ct_clean + if clean then 1 else 0);
        };
      {
        up_path = plan.pl_path;
        up_invalidated = plan.pl_invalidated;
        up_recomputed = !recomputed;
        up_failed = failed;
        up_cross_files = cross_files;
        up_deleted = plan.pl_deleted;
        up_clean = clean;
        up_models =
          List.rev_map (fun (p, m) -> (p, m, Python_emit.emit m)) !touched;
      })

let reanalyze t ~path text =
  match plan t ~path text with
  | Error d -> Error d
  | Ok pl ->
      let results =
        List.map (fun iv -> (iv, recompute t pl iv)) pl.pl_invalidated
      in
      let upd = commit t pl results in
      if upd.up_failed > 0 then
        (* surface the first failure: an in-process caller (CLI watch,
           tests) treats a failed edit like a failed batch source *)
        match
          List.find_map
            (fun (_, r) -> match r with Error d -> Some d | Ok _ -> None)
            results
        with
        | Some d -> Error d
        | None -> Ok upd
      else Ok upd
