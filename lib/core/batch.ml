type source = { src_name : string; src_text : string }

let source_of_file path =
  {
    src_name = Filename.basename path;
    src_text = In_channel.with_open_bin path In_channel.input_all;
  }

let expand_paths paths =
  List.concat_map
    (fun path ->
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".mc")
        |> List.sort compare
        |> List.map (fun f -> Filename.concat path f)
      else [ path ])
    paths

let sources_of_paths paths = List.map source_of_file (expand_paths paths)

(* Shard membership is a pure function of the expanded path, so k
   [mira batch --shard i/k] processes launched with the same arguments
   partition the work without coordinating: every path lands in
   exactly one shard, whatever order the filesystem listed it in. *)
let shard_member ~index ~count path =
  if count < 1 then invalid_arg "Batch.shard_member: count must be >= 1";
  if index < 1 || index > count then
    invalid_arg
      (Printf.sprintf "Batch.shard_member: index %d out of 1..%d" index count);
  let d = Digest.string path in
  let h =
    (Char.code d.[0] lsl 16) lor (Char.code d.[1] lsl 8) lor Char.code d.[2]
  in
  h mod count = index - 1

type analysis = {
  a_name : string;
  a_model : Model_ir.t;
  a_python : string;
  a_warnings : (string * string) list;
  a_cached : bool;
}

type result = (analysis, string * Diag.t) Stdlib.result

type stats = {
  st_total : int;
  st_analyzed : int;
  st_mem_hits : int;
  st_disk_hits : int;
  st_failed : int;
  st_jobs : int;
  st_budget : int;
  st_injected : int;
  st_cache_corrupt : int;
  st_io_retries : int;
  st_io_failures : int;
  (* function tier *)
  st_assembled : int;
  st_fn_mem_hits : int;
  st_fn_disk_hits : int;
  st_fn_analyzed : int;
}

(* ---------- content addressing ---------- *)

(* bumped from mira-batch-5: Count factors a guarded domain into
   independent loop groups, so the same text now gives another (much
   smaller) model, and warm analysis must equal cold — a parent-written
   entry would serve the old form.  The key embeds the version, so an
   entry of another version is never looked up (it ages out under
   gc_disk).  test_store pins each version's payload bytes. *)
let cache_version = "mira-batch-6"

(* the function tier versions independently of the file tier: it keys
   marshalled Metric_gen.part values, whose layout can change without
   the file payloads changing (and vice versa) *)
(* bumped from mira-fn-4 for the same reason as mira-batch-6: a part's
   counts are factored per independent loop group *)
let fn_cache_version = "mira-fn-5"

let level_tag = function
  | Mira_codegen.Codegen.O0 -> "O0"
  | Mira_codegen.Codegen.O1 -> "O1"
  | Mira_codegen.Codegen.O2 -> "O2"

let key ~level text =
  Digest.to_hex
    (Digest.string (cache_version ^ "\x00" ^ level_tag level ^ "\x00" ^ text))

(* ---------- two-tier cache ---------- *)

(* What a cache entry holds: the model plus the Python emitted for it
   under [p_name], kept because this tier answers every daemon analyze
   and eval, and so every sweep binding.  Emission is deterministic in
   (model, name), so a hit under the same name reuses [p_python]
   verbatim and a hit under another name (renamed identical file)
   re-emits from the model — either way the output is byte-identical
   to a fresh analysis. *)
type payload = { p_name : string; p_model : Model_ir.t; p_python : string }

(* Two Store tiers on one directory: whole-file payloads keyed by [key],
   and Metric_gen.part values keyed by Fingerprint digest.  Separate
   LRUs, so file payloads and function parts don't evict each other. *)
let model_tier =
  Store.tier ~suffix:".model" ~magic:"MIRAC2\n" ~validate:(fun _ -> true)

let part_tier =
  Store.tier ~suffix:".fnmodel" ~magic:"MIRAF1\n" ~validate:(fun _ -> true)

type cache = {
  c_models : payload Store.t;
  c_parts : Metric_gen.part Store.t;
  c_dir : string option;
  c_fn_fresh : int Atomic.t;  (* functions re-analyzed in isolation *)
}

let create_cache ?(capacity = 512) ?dir () =
  {
    c_models = Store.create model_tier ~capacity ~dir;
    c_parts = Store.create part_tier ~capacity ~dir;
    c_dir = dir;
    c_fn_fresh = Atomic.make 0;
  }

let cache_dir c = c.c_dir
let lock_file_name = Store.lock_file_name
let set_fsync = Store.set_fsync

type recovery_stats = Store.recovery_stats = {
  rc_scanned : int;
  rc_quarantined : int;
}

let recover_dir = Store.recover

type cache_health = {
  h_corrupt : int;
  h_io_retries : int;
  h_io_failures : int;
  h_fn_mem_hits : int;
  h_fn_disk_hits : int;
  h_fn_fresh : int;
}

let cache_health c =
  let m = Store.counters c.c_models and p = Store.counters c.c_parts in
  {
    h_corrupt = m.Store.corrupt + p.Store.corrupt;
    h_io_retries = m.Store.io_retries + p.Store.io_retries;
    h_io_failures = m.Store.io_failures + p.Store.io_failures;
    h_fn_mem_hits = p.Store.mem_hits;
    h_fn_disk_hits = p.Store.disk_hits;
    h_fn_fresh = Atomic.get c.c_fn_fresh;
  }

let gc_disk ~max_bytes c =
  match c.c_dir with None -> (0, 0) | Some dir -> Store.gc ~max_bytes dir

type merge_stats = Store.merge_stats = {
  mg_scanned : int;
  mg_copied : int;
  mg_present : int;
  mg_corrupt : int;
  mg_failed : int;
}

let merge_dirs = Store.merge

(* ---------- one task ---------- *)

(* [Assembled n]: the file missed both file tiers but was rebuilt from
   the function tier with [n] functions re-analyzed in isolation
   ([n = 0] — e.g. a formatting-only edit — means pure cache work). *)
type tier = Fresh | Mem | Disk | Assembled of int

let fn_salt level = fn_cache_version ^ "\x00" ^ level_tag level

(* The one analysis path.  Without a cache, or when no function of the
   source hits the function tier (a brand-new source), the whole file
   compiles once and, with a cache, its parts seed the tier.  Otherwise
   only the misses are re-analyzed, each against its own stub-reduced
   compilation, and the model is assembled from cached and fresh parts.
   Either way the model is byte-identical to a cold whole-file
   analysis: parts are a pure function of (function, closure) — which
   is what the digest hashes — and the cross-function parameter
   fixpoint reruns at assembly. *)
let analyze ~level ~faults ~retries cache ~src_name ~src_text =
  let pr = Input_processor.prepare ~level src_text in
  let whole () = snd (Input_processor.parts pr) in
  let parts, tier =
    match cache with
    | None -> (whole (), Fresh)
    | Some c ->
        let salt = fn_salt level in
        let probed =
          List.map
            (fun f ->
              let d = Input_processor.function_digest pr ~salt f in
              (f, d, Option.map fst (Store.find c.c_parts ~faults ~retries d)))
            (Mira_srclang.Ast.all_functions pr.Input_processor.pr_ast)
        in
        let store_part d part = Store.add c.c_parts ~faults ~retries d part in
        if List.for_all (fun (_, _, part) -> part = None) probed then begin
          let parts = whole () in
          List.iter2 (fun (_, d, _) part -> store_part d part) probed parts;
          (parts, Fresh)
        end
        else
          let misses = ref 0 in
          let parts =
            List.map
              (fun (f, d, part) ->
                match part with
                | Some part -> part
                | None ->
                    let part = Input_processor.function_part pr f in
                    Atomic.incr c.c_fn_fresh;
                    incr misses;
                    store_part d part;
                    part)
              probed
          in
          (parts, Assembled !misses)
  in
  let model = Metric_gen.assemble ~source_name:src_name parts in
  ( { p_name = src_name; p_model = model; p_python = Python_emit.emit model },
    tier )

let analyze_one ~level ~cache ~limits ~faults { src_name; src_text } =
  let retries = limits.Limits.retries in
  let fresh () = analyze ~level ~faults ~retries cache ~src_name ~src_text in
  (* A hit may come from an identical source under another name:
     re-emission runs off the current name so output stays
     byte-identical to a fresh analysis. *)
  let rename p =
    if p.p_name = src_name then p
    else
      let model = { p.p_model with Model_ir.source_name = src_name } in
      { p_name = src_name; p_model = model; p_python = Python_emit.emit model }
  in
  match
    (* each source gets its own budget: a hostile input exhausts its
       fuel, depth or deadline and becomes a diagnostic — it cannot
       hang or crash the worker domain *)
    Limits.Budget.install (Limits.budget limits) (fun () ->
        (match faults with
        | Some f ->
            if f.Faults.slow_ms > 0
               && Faults.fires f ~p:f.slow_p ~site:"slow" ~subject:src_name
            then Unix.sleepf (float_of_int f.slow_ms /. 1000.0);
            if Faults.fires f ~p:f.worker_p ~site:"worker" ~subject:src_name
            then raise (Faults.Injected "worker")
        | None -> ());
        match cache with
        | None -> fresh ()
        | Some c -> (
            let k = key ~level src_text in
            match Store.find c.c_models ~faults ~retries k with
            | Some (p, Store.Memory) -> (rename p, Mem)
            | Some (p, Store.Disk) -> (rename p, Disk)
            | None ->
                let p, tier = fresh () in
                Store.add c.c_models ~faults ~retries k p;
                (p, tier)))
  with
  | payload, tier ->
      ( Ok
          {
            a_name = src_name;
            a_model = payload.p_model;
            a_python = payload.p_python;
            a_warnings = Model_ir.all_warnings payload.p_model;
            a_cached =
              (match tier with
              | Fresh -> false
              | Mem | Disk -> true
              (* assembled entirely from cached parts (e.g. a
                 formatting-only edit): no re-analysis happened *)
              | Assembled misses -> misses = 0);
          },
        tier )
  | exception e ->
      (* classify everything: user errors keep their position, budget
         and timeout overruns are first-class, and anything unexpected
         becomes Internal_error with a captured backtrace instead of
         masquerading as an input problem *)
      (Error (src_name, Diag.of_exn e), Fresh)

(* ---------- the worker pool ---------- *)

let run ?(jobs = 1) ?cache ?(level = Mira_codegen.Codegen.O1)
    ?(limits = Limits.default) ?faults sources =
  Printexc.record_backtrace true;
  let health0 =
    match cache with
    | Some c -> cache_health c
    | None ->
        {
          h_corrupt = 0;
          h_io_retries = 0;
          h_io_failures = 0;
          h_fn_mem_hits = 0;
          h_fn_disk_hits = 0;
          h_fn_fresh = 0;
        }
  in
  let tasks = Array.of_list sources in
  let n = Array.length tasks in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let analyzed = Atomic.make 0
  and mem_hits = Atomic.make 0
  and disk_hits = Atomic.make 0
  and assembled = Atomic.make 0
  and failed = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let res, tier =
          analyze_one ~level ~cache ~limits ~faults tasks.(i)
        in
        (match (res, tier) with
        | Error _, _ -> Atomic.incr failed
        | Ok _, Fresh -> Atomic.incr analyzed
        | Ok _, Mem -> Atomic.incr mem_hits
        | Ok _, Disk -> Atomic.incr disk_hits
        | Ok _, Assembled _ -> Atomic.incr assembled);
        (* slot write: the merge below replays input order, so
           scheduling cannot reorder results *)
        out.(i) <- Some res;
        loop ()
      end
    in
    loop ()
  in
  let jobs = max 1 (min jobs (max 1 n)) in
  if jobs = 1 then worker ()
  else begin
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers
  end;
  let results = Array.to_list (Array.map (fun r -> Option.get r) out) in
  let count_diag pred =
    List.fold_left
      (fun acc r ->
        match r with Error (_, d) when pred d -> acc + 1 | _ -> acc)
      0 results
  in
  let health =
    match cache with Some c -> cache_health c | None -> health0
  in
  ( results,
    {
      st_total = n;
      st_analyzed = Atomic.get analyzed;
      st_mem_hits = Atomic.get mem_hits;
      st_disk_hits = Atomic.get disk_hits;
      st_failed = Atomic.get failed;
      st_jobs = jobs;
      st_budget = count_diag Diag.is_budget;
      st_injected =
        count_diag (fun d -> d.Diag.d_kind = Diag.Injected_fault);
      (* cache health is reported as this run's delta, so a cache value
         reused across runs doesn't double-count *)
      st_cache_corrupt = health.h_corrupt - health0.h_corrupt;
      st_io_retries = health.h_io_retries - health0.h_io_retries;
      st_io_failures = health.h_io_failures - health0.h_io_failures;
      st_assembled = Atomic.get assembled;
      st_fn_mem_hits = health.h_fn_mem_hits - health0.h_fn_mem_hits;
      st_fn_disk_hits = health.h_fn_disk_hits - health0.h_fn_disk_hits;
      st_fn_analyzed = health.h_fn_fresh - health0.h_fn_fresh;
    } )

(* ---------- reporting ---------- *)

let report results stats =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun res ->
      match res with
      | Ok a ->
          (* no cache marker here: per-source report lines are
             byte-identical whether the source was analyzed or served
             from cache; only the stats line below reflects tiers *)
          pr "%s: %d function(s)\n" a.a_name
            (List.length a.a_model.Model_ir.functions);
          List.iter
            (fun (fm : Model_ir.fmodel) ->
              pr "  %s(%s)\n" fm.Model_ir.mf_name
                (String.concat ", " fm.Model_ir.mf_params))
            a.a_model.Model_ir.functions;
          List.iter (fun (f, w) -> pr "  warning [%s] %s\n" f w) a.a_warnings
      | Error (name, diag) -> pr "%s: FAILED: %s\n" name (Diag.to_string diag))
    results;
  pr "batch: %d source(s), %d analyzed, %d memory hit(s), %d disk hit(s), %d failed\n"
    stats.st_total stats.st_analyzed stats.st_mem_hits stats.st_disk_hits
    stats.st_failed;
  if
    stats.st_assembled + stats.st_fn_mem_hits + stats.st_fn_disk_hits
    + stats.st_fn_analyzed
    > 0
  then
    pr
      "batch: function tier: %d source(s) assembled, %d memory hit(s), %d \
       disk hit(s), %d function(s) analyzed\n"
      stats.st_assembled stats.st_fn_mem_hits stats.st_fn_disk_hits
      stats.st_fn_analyzed;
  if
    stats.st_budget + stats.st_injected + stats.st_cache_corrupt
    + stats.st_io_retries + stats.st_io_failures
    > 0
  then
    pr "robustness: %d budget-limited, %d injected fault(s), %d corrupt cache \
        entr(ies), %d I/O retr(ies), %d I/O failure(s)\n"
      stats.st_budget stats.st_injected stats.st_cache_corrupt
      stats.st_io_retries stats.st_io_failures;
  Buffer.contents buf
