(* serve_mixed: a [mira serve --cache] child process with default
   workers, driven by two closed-loop caller threads with one
   connection each.  One thread sends single requests through [Client]
   (analyze of a known source, analyze of a freshly edited source,
   eval, a few pings); the other sends fixed-size sweep chunks through
   [Coordinator], as [mira eval-sweep] does.  Sources come from a
   working set about twice the daemon's 512-entry memory tier, picked
   with skewed popularity, so the memory and the disk tier both serve
   hits.  The wire, the cache tiers, the Python re-emission of cache
   hits and compiled evaluation do the work; cold whole-file analysis
   does almost none. *)

open Mira_core

(* Nests at most two deep keep evaluation at the sizes below cheap even
   where a count is enumerated at evaluation time. *)
let project seed =
  Gen.project ~max_depth:2 ~seed ~kernels:1024 ~apps:0 ~bundled:false
    ~kernels_per_file:(1, 2) ()

(* per-mille shares of single requests: ping, analyze hit, eval; edits
   take the rest.  p50 falls among the hits and evals, p90 inside the
   edits. *)
let ping_pm = 40
let hit_pm = 500
let eval_pm = 260
let chunk = 32

(* Work per nominal second: the two callers advance in lockstep blocks
   of this much work each, so they overlap for the whole run and every
   run has the same mix over time. *)
let singles_per_block = 450
let chunks_per_block = 220

(* Lockstep barrier: a caller that finished block [k] waits until the
   other has too.  A caller that stops (normally or not) is marked done
   with [max_int] so the other never waits for it. *)
type lockstep = { lk_mu : Mutex.t; lk_cond : Condition.t; lk_done : int array }

let lockstep () = { lk_mu = Mutex.create (); lk_cond = Condition.create (); lk_done = [| 0; 0 |] }

let reach lk who k =
  Mutex.lock lk.lk_mu;
  lk.lk_done.(who) <- k;
  Condition.broadcast lk.lk_cond;
  while lk.lk_done.(1 - who) < k do
    Condition.wait lk.lk_cond lk.lk_mu
  done;
  Mutex.unlock lk.lk_mu

let release lk who =
  Mutex.lock lk.lk_mu;
  lk.lk_done.(who) <- max_int;
  Condition.broadcast lk.lk_cond;
  Mutex.unlock lk.lk_mu

let cls_names = [| "ping"; "analyze_hit"; "eval"; "analyze_edit" |]
let c_ping = 0 and c_hit = 1 and c_eval = 2 and c_edit = 3

let daemon_cpu () = Sys.getenv_opt "PERFBENCH_DAEMON_CPU"
let mira_exe () = Option.value (Sys.getenv_opt "PERFBENCH_MIRA") ~default:"_build/default/bin/mira.exe"
let cache_fs = ref "unknown"

let env_fields () =
  [
    ("daemon_cpu", Option.value (daemon_cpu ()) ~default:"unpinned");
    ("daemon_cache_fs", !cache_fs);
    ("daemon_fsync", "off (--no-fsync)");
  ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* the filesystem type of [dir], from the longest matching mount *)
let fs_type dir =
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  match In_channel.with_open_text "/proc/mounts" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
      let best = ref ("", "unknown") in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | _ :: mnt :: ty :: _ ->
              let l = String.length mnt in
              if
                String.length dir >= l
                && String.sub dir 0 l = mnt
                && l > String.length (fst !best)
              then best := (mnt, ty)
          | _ -> ())
        (String.split_on_char '\n' text);
      snd !best

type daemon = { pid : int; ep : Endpoint.t; dir : string }

(* daemons still running; an exception anywhere must not leave one
   behind *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* The daemon's cache lives inside the checkout with fsync off: the
   publish protocol runs, but a virtual disk's fsync latency does not
   enter the numbers. *)
let spawn ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "m.sock" in
  let log = Unix.openfile (Filename.concat dir "log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let serve =
    [ mira_exe (); "serve"; "--endpoint"; "unix:" ^ sock; "--cache"; "--cache-dir";
      Filename.concat dir "cache"; "--no-fsync" ]
  in
  let argv =
    match daemon_cpu () with Some c -> "taskset" :: "-c" :: c :: serve | None -> serve
  in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  { pid; ep = Endpoint.Unix_sock sock; dir }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = snd (Unix.waitpid [] d.pid) in
  live := List.filter (( <> ) d.pid) !live;
  match status with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED c -> Error (Printf.sprintf "daemon exited %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "daemon killed by signal %d" s)

let no_budget = { Serve.rq_fuel = None; rq_timeout_ms = None; rq_depth = None }

type ws = {
  names : string array;
  texts : string array;
  digests : string array;  (** in-process Batch.run Python digest *)
  models : Model_ir.t option array;
  kernels : string array array;  (** kernel functions per source *)
  pj : Gen.project;
}

(* The in-process oracle: every working-set source analyzed by
   Batch.run, untimed. *)
let working_set rep pj =
  let files = pj.Gen.pj_files in
  let names = Array.map (fun f -> f.Gen.fl_name) files in
  let texts = Array.map Gen.render files in
  let res = Array.mapi (fun i t -> Cold.batch_one ~name:names.(i) t) texts in
  let digests =
    Array.mapi
      (fun i r ->
        match r with
        | Ok a -> Digest.to_hex (Digest.string a.Batch.a_python)
        | Error m ->
            Outcome.fail rep (names.(i) ^ ": " ^ m);
            "")
      res
  in
  let models = Array.map (function Ok a -> Some a.Batch.a_model | Error _ -> None) res in
  let kernels =
    Array.map
      (fun f ->
        Array.of_list
          (List.filter_map
             (fun fn -> if fn.Gen.fn_kind = Gen.Kernel then Some fn.fn_name else None)
             (Array.to_list f.Gen.fl_funcs)))
      files
  in
  { names; texts; digests; models; kernels; pj }

(* Evaluation the daemon performs for eval and sweep answers, run in
   process: compiled program when the model compiles, interpreter
   otherwise, rendered as the response body. *)
let expected_eval =
  let cache = Model_compile.create_cache () in
  let memo = Hashtbl.create 4096 in
  fun (w : ws) i fname n ->
    match (Hashtbl.find_opt memo (i, fname, n), w.models.(i)) with
    | Some body, _ -> body
    | None, None -> ""
    | None, Some model ->
        let env = [ ("n", n) ] in
        let counts =
          match
            Model_compile.get cache ~digest:w.digests.(i) ~model ~fname ~sweep:[ "n" ] ~fixed:[] ()
          with
          | Ok prog -> Model_compile.eval prog ~env
          | Error _ -> Model_eval.eval model ~fname ~env
        in
        let body = String.concat "" (List.map (fun (mn, v) -> Printf.sprintf "%s=%.12g\n" mn v) counts) in
        Hashtbl.replace memo (i, fname, n) body;
        body

(* skewed popularity: density falls as 1/sqrt(rank) *)
let popular rng n =
  let u = Random.State.float rng 1.0 in
  min (n - 1) (int_of_float (float_of_int n *. u *. u))

type single = { q_cls : int; q_src : int; q_fn : string; q_n : int; q_text : string }

let single_stream (w : ws) ~seed ~n =
  let rng = Random.State.make [| seed; 0x73696e67 |] in
  let files = w.pj.Gen.pj_files in
  let nsrc = Array.length w.names in
  Array.init n (fun _ ->
      let r = Random.State.int rng 1000 in
      let src = popular rng nsrc in
      let fn = Gen.pick rng w.kernels.(src) in
      let q cls text = { q_cls = cls; q_src = src; q_fn = fn; q_n = 8 lsl Random.State.int rng 5; q_text = text } in
      if r < ping_pm then q c_ping ""
      else if r < ping_pm + hit_pm then q c_hit w.texts.(src)
      else if r < ping_pm + hit_pm + eval_pm then q c_eval w.texts.(src)
      else begin
        (* a freshly edited text: one kernel body changed, never sent before *)
        let fl = files.(src) in
        let j = ref 0 in
        Array.iteri (fun k f -> if f.Gen.fn_name = fn then j := k) fl.fl_funcs;
        let f = fl.fl_funcs.(!j) in
        f.fn_edit <- f.fn_edit + 1;
        q c_edit (Gen.render fl)
      end)

(* Bindings in chunk order: each chunk of [chunk] bindings draws on
   four sources, so every sweep frame carries four source texts. *)
let sweep_stream (w : ws) ~seed ~chunks =
  let rng = Random.State.make [| seed; 0x73776570 |] in
  let nsrc = Array.length w.names in
  Array.concat
    (List.init chunks (fun _ ->
         let srcs = Array.init 4 (fun _ -> popular rng nsrc) in
         Array.init chunk (fun k ->
             let s = srcs.(k mod 4) in
             (s, Gen.pick rng w.kernels.(s), 1 + Random.State.int rng 256))))

let digest_of_body body = Digest.to_hex (Digest.string body)

let stats_of (r : Serve.response) =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) r.Serve.rs_fields;
  List.iter
    (fun line ->
      match String.index_opt line '=' with
      | Some i -> Hashtbl.replace tbl (String.sub line 0 i) (String.sub line (i + 1) (String.length line - i - 1))
      | None -> ())
    (String.split_on_char '\n' r.rs_body);
  fun k -> match Hashtbl.find_opt tbl k with Some v -> float_of_string v | None -> nan

let request client req =
  match Client.request client req with
  | Ok ({ Serve.rs_status = "ok"; _ } as r) -> Ok r
  | Ok r -> Error (r.Serve.rs_status ^ ": " ^ r.rs_body)
  | Error m -> Error m

(* Spawn until the daemon answers, then prime every working-set source
   through it.  Returns the set-up time and the daemon. *)
let setup rep (w : ws) ~dir =
  let t0 = Samples.now () in
  let d = spawn ~dir in
  if not (Client.wait_ready ~timeout_s:30.0 d.ep) then failwith "daemon did not answer";
  let bodies =
    Client.with_pool [ d.ep ] (fun c ->
        Client.sweep c
          (Array.to_list
             (Array.mapi
                (fun i text -> Serve.Analyze { an_name = w.names.(i); an_source = text; an_budget = no_budget })
                w.texts)))
    |> List.map (function
         | Ok ({ Serve.rs_status = "ok"; _ } as r) -> Ok r
         | Ok r -> Error (r.Serve.rs_status ^ ": " ^ r.rs_body)
         | Error m -> Error m)
    |> Array.of_list
  in
  let dt = Samples.now () -. t0 in
  Array.iteri
    (fun i r ->
      Outcome.attempt rep 1;
      match r with
      | Ok r when digest_of_body r.Serve.rs_body = w.digests.(i) -> ()
      | Ok _ -> Outcome.fail rep (w.names.(i) ^ ": primed Python differs from in-process")
      | Error m -> Outcome.fail rep (w.names.(i) ^ ": priming failed: " ^ m))
    bodies;
  (dt, d)

type outcome = {
  o_lat : Samples.t;
  o_cls : int array;
  o_chunks : Samples.t;
  o_wall : float;
  o_sweep_wall : float;
  o_ops : int;
  o_bindings : int;
  o_stats0 : string -> float;
  o_stats1 : string -> float;
  o_rss : float;
  o_setups : float list;
}

let measure rep ~seed ~seconds ~work_dir ~setups =
  let pj = project seed in
  let w = working_set rep pj in
  cache_fs := fs_type work_dir;
  let blocks = max 1 (int_of_float (Float.round seconds)) in
  let n1 = blocks * singles_per_block and n_chunks = blocks * chunks_per_block in
  let singles = single_stream w ~seed ~n:n1 in
  let sweep = sweep_stream w ~seed ~chunks:n_chunks in
  let base = Filename.concat work_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let setup_times = ref [] and daemon = ref None in
  for k = 1 to setups do
    let dt, d = setup rep w ~dir:(Filename.concat base (string_of_int k)) in
    setup_times := dt :: !setup_times;
    (* a primed cache is deleted as soon as its daemon stops: on ext4,
       caches kept to the end (or flushed first) made later set-ups
       slower *)
    if k < setups then (
      match stop d with Ok () -> rm_rf d.dir | Error m -> Outcome.fail rep m)
    else daemon := Some d
  done;
  let d = Option.get !daemon in
  let lat = Samples.create n1 in
  let cls = Array.make n1 0 in
  let chunk_lat = Samples.create n_chunks in
  let answers = Array.make n1 "" in
  let bindings =
    Array.to_list
      (Array.map
         (fun (s, fn, n) ->
           { Coordinator.bd_name = w.names.(s); bd_source = w.texts.(s); bd_function = fn; bd_params = [ ("n", n) ] })
         sweep)
  in
  let sweep_results = ref [||] in
  let sweep_wall = ref 0.0 in
  let result =
    Client.with_pool ~max_inflight:1 [ d.ep ] (fun c ->
        let stats () =
          match request c Serve.Stats with
          | Ok r -> stats_of r
          | Error m ->
              Outcome.fail rep ("stats: " ^ m);
              fun _ -> nan
        in
        let s0 = stats () in
        (* one Coordinator run, as [mira eval-sweep] makes: chunks go out
           one after another on one connection, so a chunk ends when the
           answered count reaches a multiple of [chunk] *)
        let lk = lockstep () in
        let sweeper () =
          Fun.protect ~finally:(fun () -> release lk 1) @@ fun () ->
          let t = Samples.now () in
          let last = ref t in
          let on_progress ~finished ~total:_ =
            if finished mod chunk = 0 then begin
              let now = Samples.now () in
              Samples.add chunk_lat (now -. !last);
              if finished mod (chunk * chunks_per_block) = 0 then
                reach lk 1 (finished / (chunk * chunks_per_block));
              last := Samples.now ()
            end
          in
          let res, st = Coordinator.run ~chunk ~on_progress [ d.ep ] bindings in
          sweep_wall := Samples.now () -. t;
          sweep_results := res;
          if st.Coordinator.co_unfinished <> [] || st.co_duplicates > 0 || st.co_redispatched > 0 then
            Outcome.fail rep
              (Printf.sprintf "sweep: %d unfinished, %d duplicate, %d re-dispatched binding(s)"
                 (List.length st.co_unfinished) st.co_duplicates st.co_redispatched)
        in
        let t0 = Samples.now () in
        let th = Thread.create sweeper () in
        Fun.protect ~finally:(fun () -> release lk 0) (fun () ->
        Array.iteri
          (fun k q ->
            let req =
              if q.q_cls = c_ping then Serve.Ping
              else if q.q_cls = c_eval then
                Serve.Eval
                  { ev_name = w.names.(q.q_src); ev_source = q.q_text; ev_function = q.q_fn;
                    ev_params = [ ("n", q.q_n) ]; ev_budget = no_budget }
              else Serve.Analyze { an_name = w.names.(q.q_src); an_source = q.q_text; an_budget = no_budget }
            in
            let a = Samples.now () in
            let r = request c req in
            Samples.add lat (Samples.now () -. a);
            cls.(k) <- q.q_cls;
            (match r with
            | Ok r -> answers.(k) <- r.Serve.rs_body
            | Error m -> Outcome.fail rep (Printf.sprintf "%s %s: %s" cls_names.(q.q_cls) w.names.(q.q_src) m));
            if (k + 1) mod singles_per_block = 0 then reach lk 0 ((k + 1) / singles_per_block))
          singles);
        Thread.join th;
        let wall = Samples.now () -. t0 in
        let s1 = stats () in
        (wall, s0, s1))
  in
  let wall, s0, s1 = result in
  let rss = Samples.peak_rss_mb ~pid:(string_of_int d.pid) () in
  (match stop d with Ok () -> () | Error m -> Outcome.fail rep m);
  rm_rf base;
  (* answers against the in-process oracle, untimed *)
  let rng = Random.State.make [| seed; 0x63686b |] in
  Array.iteri
    (fun k q ->
      if answers.(k) <> "" then
        if q.q_cls = c_hit then begin
          if digest_of_body answers.(k) <> w.digests.(q.q_src) then
            Outcome.fail rep (w.names.(q.q_src) ^ ": analyze answer differs from in-process")
        end
        else if q.q_cls = c_eval then begin
          if answers.(k) <> expected_eval w q.q_src q.q_fn q.q_n then
            Outcome.fail rep (w.names.(q.q_src) ^ ": eval answer differs from in-process")
        end
        else if q.q_cls = c_edit && Random.State.int rng 8 = 0 then
          match Cold.batch_one ~name:w.names.(q.q_src) q.q_text with
          | Ok a when digest_of_body a.Batch.a_python = digest_of_body answers.(k) -> ()
          | _ -> Outcome.fail rep (w.names.(q.q_src) ^ ": edited analyze answer differs from in-process"))
    singles;
  (* every binding answered; the values of a seeded eighth compared *)
  let res = !sweep_results in
  if Array.length res <> Array.length sweep then
    Outcome.fail rep (Printf.sprintf "sweep: %d answers for %d bindings" (Array.length res) (Array.length sweep))
  else
    Array.iteri
      (fun b (s, fn, n) ->
        match res.(b) with
        | Ok { Serve.rs_status = "ok"; rs_body; _ } ->
            if Random.State.int rng 8 = 0 && rs_body <> expected_eval w s fn n then
              Outcome.fail rep (Printf.sprintf "sweep %s %s n=%d differs from in-process" w.names.(s) fn n)
        | Ok r -> Outcome.fail rep ("sweep binding: " ^ r.Serve.rs_body)
        | Error m -> Outcome.fail rep ("sweep binding: " ^ m))
      sweep;
  Outcome.attempt rep (n1 + (n_chunks * chunk));
  {
    o_lat = lat;
    o_cls = cls;
    o_chunks = chunk_lat;
    o_wall = wall;
    o_sweep_wall = !sweep_wall;
    o_ops = n1 + (n_chunks * chunk);
    o_bindings = n_chunks * chunk;
    o_stats0 = s0;
    o_stats1 = s1;
    o_rss = rss;
    o_setups = List.rev !setup_times;
  }

let run_untraced rep ~seed ~seconds ~work_dir =
  let o = measure rep ~seed ~seconds ~work_dir ~setups:3 in
  Outcome.class_report ~what:"serve_mixed" o.o_lat o.o_cls cls_names;
  Outcome.line "serve_mixed: %d single requests + %d sweep bindings in %.2f s (sweep thread %.2f s); set-ups %s"
    (Samples.count o.o_lat) o.o_bindings o.o_wall o.o_sweep_wall
    (String.concat " " (List.map (Printf.sprintf "%.3f") o.o_setups));
  Outcome.end_to_end rep ~setups:o.o_setups ~ops:o.o_ops ~wall:o.o_wall ~lat:o.o_lat ~rss:o.o_rss

let moves = function
  | "serve.ping.p50_ms" -> "latency_p50_ms (floor: event loop, frame codec, Client)"
  | "serve.analyze_hit.p50_ms" -> "latency_p50_ms, throughput_per_s"
  | "serve.analyze_edit.p50_ms" | "batch.mem_hit_ratio" | "batch.disk_hits" -> "latency_p90_ms"
  | "serve.eval.p50_ms" -> "latency_p50_ms"
  | "serve.sweep_chunk.p50_ms" | "serve.sweep.bindings_per_s" -> "throughput_per_s"
  | s when String.length s > 14 && String.sub s 0 14 = "model_compile." -> "throughput_per_s"
  | "serve.failed" -> "every metric (a failed answer is a failed operation)"
  | _ -> "latency_p90_ms"

let run_traced rep ~seed ~seconds ~work_dir =
  let o = measure rep ~seed ~seconds ~work_dir ~setups:1 in
  let metric name unit v =
    Outcome.metric rep name unit v;
    Outcome.line "  moves: serve_mixed %s -> %s" name (moves name)
  in
  Array.iteri
    (fun c name ->
      metric (Printf.sprintf "serve.%s.p50_ms" name) "ms" (1000.0 *. Samples.class_quantile o.o_lat o.o_cls c 0.5))
    cls_names;
  metric "serve.sweep_chunk.p50_ms" "ms" (1000.0 *. Samples.quantile o.o_chunks 0.5);
  metric "serve.sweep.bindings_per_s" "1/s" (float_of_int o.o_bindings /. o.o_sweep_wall);
  let d k = o.o_stats1 k -. o.o_stats0 k in
  let lookups = d "mem-hits" +. d "disk-hits" +. d "analyzed" +. d "assembled" in
  metric "batch.mem_hit_ratio" "ratio" (d "mem-hits" /. lookups);
  Outcome.line "  batch.mem_hit_ratio base: %.0f file-tier lookups" lookups;
  metric "batch.disk_hits" "count" (d "disk-hits");
  metric "batch.fn_hits" "count" (d "fn-mem-hits" +. d "fn-disk-hits");
  metric "batch.analyzed" "count" (d "analyzed");
  let compiles = d "compile-hits" +. d "compile-misses" in
  metric "model_compile.hit_ratio" "ratio" (d "compile-hits" /. compiles);
  Outcome.line "  model_compile.hit_ratio base: %.0f compile lookups" compiles;
  metric "model_compile.misses" "count" (d "compile-misses");
  metric "model_compile.fallbacks" "count" (d "compile-fallbacks");
  metric "serve.failed" "count" (d "failed");
  Outcome.line "  moves: serve_mixed priming -> setup_s";
  Outcome.line "serve_mixed traced: %d single requests, %d sweep chunks" (Samples.count o.o_lat)
    (Samples.count o.o_chunks)
