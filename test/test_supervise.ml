(* The self-healing fleet, exercised end to end:

   - crash-consistent publish: forked children run cache-backed
     batches with the seeded crash site armed (self-SIGKILL between
     write, fsync and rename inside every durable_publish); after each
     death the recovery scan must find {e zero} torn published entries
     — fsync-before-rename means a published name is never over torn
     bytes — and a warm run against the survivor cache must be
     byte-identical to an undisturbed one;
   - supervisor: a child that exits immediately trips the per-child
     restart-storm breaker; a child that runs but never answers
     [health] is wedge-killed and restarted until the breaker trips;
     [stop] drains the fleet and returns [Drained];
   - client breakers: repeated failures open an endpoint's circuit
     ([bk_tripped]), and once a daemon appears there the
     elapsed-cooldown half-open probe closes it again ([bk_reopened])
     without counting a second trip;
   - coordinator revival: an endpoint dead at sweep start is lost
     ([co_daemons_lost]), then revived by its half-open probe when a
     daemon comes up mid-sweep, and rejoins ([co_revived]) — every
     binding still answered exactly once;
   - coordinator timeouts: against a listener that never answers, the
     chunk deadline ends every read even with the heartbeat off, or
     when it is nearer than the heartbeat, so [run] returns; a daemon
     that stalls every frame between header and payload for longer
     than the heartbeat is not lost, because a frame still arriving is
     not silence;
   - client wake-ups: an idle pooled ping is answered in a round trip,
     not a polling interval; a frame split across reader ticks is
     still answered; a tick ends a request at its deadline, and the
     pool serves the next one; a request whose deadline passes while
     it waits for pipeline room fails alone, and the request on the
     wire is still answered;
   - the supervised fleet, over real processes: [mira supervise] runs
     three daemons; one is SIGKILLed mid-sweep and then SIGKILLed
     again after its restart; both generations are respawned, the
     sweeps complete exactly-once and byte-identical to a
     single-daemon run, and the twice-restarted child observably
     serves; SIGTERM drains the whole tree with exit 0; a child on a
     secret-bearing tcp endpoint is probed with sealed frames, so its
     own stats count no protocol errors;
   - cache merge vs a live batch writer racing on one DST (real
     cross-process lock interplay), merged result fully warm and
     byte-identical;
   - CLI: [eval-sweep --pipeline] (deprecated through PR 9, removed
     in PR 10) is rejected as an unknown option; [supervise] refuses
     an unprobeable [tcp:...:0] endpoint and a secret passed only
     through [--serve-arg]; [mira client] shed by a saturated daemon
     exits 3 and names the endpoint. *)

open Mira_core

let seed =
  match Sys.getenv_opt "MIRA_FAULT_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> failwith "MIRA_FAULT_SEED must be an integer")
  | None -> 20260806

let temp_name =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mira_exe = Filename.concat (Filename.concat ".." "bin") "mira.exe"
let saxpy = Option.get (Mira_corpus.Corpus.find "saxpy")
let stream = Option.get (Mira_corpus.Corpus.find "stream")

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

let wait_for ?(timeout_s = 20.0) msg pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if not (pred ()) then
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" msg
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

let wait_exit ?(timeout_s = 30.0) pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "subprocess did not exit in time"
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _, st -> st
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        (* already reaped by an earlier wait *)
        Unix.WEXITED 0
  in
  go ()

let kill_pid pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let spawn_capture argv out_file err_file =
  let out =
    Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let err =
    Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out;
      Unix.close err;
      Unix.close devnull)
    (fun () -> Unix.create_process argv.(0) argv devnull out err)

(* ---------- crash-consistent publish ---------- *)

let batch_sources = [
  { Batch.src_name = "saxpy.mc"; src_text = saxpy };
  { Batch.src_name = "stream.mc"; src_text = stream };
]

let crash_tests =
  let open Alcotest in
  [
    test_case
      "seeded crash-injected publishes leave zero torn entries after recovery"
      `Slow (fun () ->
        Batch.set_fsync true;
        let reference, _ = Batch.run batch_sources in
        let children = 80 in
        let crashed = ref 0 and survived = ref 0 in
        for i = 0 to children - 1 do
          let dir = temp_name (Printf.sprintf "mira-crash-%d" i) in
          (match Unix.fork () with
          | 0 ->
              (* the child arms its own crash schedule: a deterministic
                 seed picks which publish point (tmp-written /
                 tmp-synced / renamed) dies, exactly as a power cut
                 would — no unwind, no flush *)
              Faults.set_crash ~seed:(seed + i) 0.15;
              (try
                 ignore
                   (Batch.run ~cache:(Batch.create_cache ~dir ()) batch_sources)
               with _ -> ());
              Unix._exit 0
          | pid -> (
              match snd (Unix.waitpid [] pid) with
              | Unix.WSIGNALED s when s = Sys.sigkill -> incr crashed
              | Unix.WEXITED 0 -> incr survived
              | st ->
                  failf "crash child %d: unexpected status %s" i
                    (match st with
                    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                    | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)));
          (* the recovery scan must find nothing torn: every published
             name covers fully-synced bytes, whatever point the child
             died at *)
          if Sys.file_exists dir then begin
            let rs = Batch.recover_dir dir in
            check int
              (Printf.sprintf "child %d: zero torn entries" i)
              0 rs.Batch.rc_quarantined
          end;
          (* and the survivor cache serves a correct continuation: the
             warm run completes whatever the crash cut short,
             byte-identical to the undisturbed reference *)
          let cache = Batch.create_cache ~dir () in
          let warm, _ = Batch.run ~cache batch_sources in
          List.iter2
            (fun r w ->
              match (r, w) with
              | Ok (ra : Batch.analysis), Ok wa ->
                  check string "byte-identical python" ra.Batch.a_python
                    wa.Batch.a_python
              | _ -> fail "warm run failed after crash recovery")
            reference warm;
          check int
            (Printf.sprintf "child %d: no corrupt reads" i)
            0 (Batch.cache_health cache).Batch.h_corrupt;
          rm_rf dir
        done;
        (* the schedule must actually have bitten: a harness where no
           child ever dies is testing nothing *)
        check bool "some children crashed mid-publish" true (!crashed >= 5);
        check int "every child accounted for" children (!crashed + !survived));
  ]

(* ---------- supervisor policy, in-process ---------- *)

let dead_ep () = Endpoint.Unix_sock (temp_name "mira-sup-dead" ^ ".sock")

let quiet_config ~children =
  { (Supervisor.default_config ~children) with sp_log = ignore }

let supervisor_tests =
  let open Alcotest in
  [
    test_case "a child that can never come up trips the storm breaker" `Quick
      (fun () ->
        let children =
          [
            {
              Supervisor.cs_name = "flappy";
              cs_argv = [| "/bin/false" |];
              cs_endpoint = dead_ep ();
            };
          ]
        in
        let cfg =
          {
            (quiet_config ~children) with
            sp_backoff_base_ms = 10;
            sp_backoff_max_ms = 40;
            sp_storm_failures = 3;
          }
        in
        let t = Supervisor.create cfg in
        (match Supervisor.run t with
        | Supervisor.Storm name -> check string "names the child" "flappy" name
        | Supervisor.Drained -> fail "an unstartable child drained cleanly");
        let st = Supervisor.stats t in
        check int "three generations spawned" 3 st.Supervisor.su_spawns;
        check int "restarts before giving up" 2 st.Supervisor.su_restarts;
        check int "one storm" 1 st.Supervisor.su_storms);
    test_case "a running-but-unready child is wedge-killed" `Quick (fun () ->
        let children =
          [
            {
              Supervisor.cs_name = "wedged";
              cs_argv = [| "/bin/sleep"; "60" |];
              cs_endpoint = dead_ep ();
            };
          ]
        in
        let cfg =
          {
            (quiet_config ~children) with
            sp_probe_interval_ms = 50;
            sp_wedge_timeout_ms = 250;
            sp_backoff_base_ms = 10;
            sp_backoff_max_ms = 40;
            sp_storm_failures = 2;
          }
        in
        let t = Supervisor.create cfg in
        (match Supervisor.run t with
        | Supervisor.Storm name -> check string "names the child" "wedged" name
        | Supervisor.Drained -> fail "a wedged child drained cleanly");
        let st = Supervisor.stats t in
        check int "both generations wedge-killed" 2 st.Supervisor.su_wedge_kills);
    test_case "stop drains the fleet" `Quick (fun () ->
        let children =
          [
            {
              Supervisor.cs_name = "drainee";
              cs_argv = [| "/bin/sleep"; "60" |];
              cs_endpoint = dead_ep ();
            };
          ]
        in
        let cfg =
          {
            (quiet_config ~children) with
            sp_wedge_timeout_ms = 60_000;
            sp_grace_ms = 3_000;
          }
        in
        let t = Supervisor.create cfg in
        let outcome = ref Supervisor.Drained in
        let th = Thread.create (fun () -> outcome := Supervisor.run t) () in
        Unix.sleepf 0.3;
        Supervisor.stop t;
        Thread.join th;
        (match !outcome with
        | Supervisor.Drained -> ()
        | Supervisor.Storm _ -> fail "clean stop reported a storm");
        check int "one spawn, no restarts" 1 (Supervisor.stats t).Supervisor.su_spawns);
  ]

(* ---------- in-process daemon harness ---------- *)

let with_daemon ?(cfg = fun c -> c) ?(wait = true) endpoints f =
  let config = cfg (Serve.default_config_endpoints ~endpoints) in
  let server = Serve.create config in
  let th = Thread.create (fun () -> ignore (Serve.serve server)) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      List.iter
        (function
          | Endpoint.Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
          | Endpoint.Tcp _ -> ())
        endpoints)
    (fun () ->
      let eps = Serve.bound_endpoints server in
      if wait then
        Alcotest.(check bool)
          "daemon is up" true
          (Client.wait_ready (List.hd eps));
      f ~eps server)

let unix_ep () = Endpoint.Unix_sock (temp_name "mira-supervise" ^ ".sock")

(* ---------- client circuit breakers ---------- *)

let breaker_tests =
  let open Alcotest in
  [
    test_case "the half-open probe closes a revived endpoint's circuit"
      `Quick (fun () ->
        let sock = temp_name "mira-breaker" ^ ".sock" in
        let ep = Endpoint.Unix_sock sock in
        let pool = Client.create ~io_timeout_ms:2_000 [ ep ] in
        Fun.protect
          ~finally:(fun () -> Client.close pool)
          (fun () ->
            (* nothing listening: consecutive connect failures must trip
               the breaker open *)
            (match Client.request pool Serve.Ping with
            | Error _ -> ()
            | Ok _ -> fail "a dead endpoint answered");
            let st = Client.breaker_stats pool in
            check int "circuit open" 1 st.Client.bk_open;
            check int "one trip" 1 st.Client.bk_tripped;
            check int "nothing reopened yet" 0 st.Client.bk_reopened;
            (* revive the endpoint, outlive the first-trip cooldown
               (0.5 s), and the next request must ride the half-open
               probe and close the circuit *)
            with_daemon [ ep ] (fun ~eps:_ _server ->
                Unix.sleepf 0.6;
                (match Client.request pool Serve.Ping with
                | Ok r -> check string "probe served" "ok" r.Serve.rs_status
                | Error m -> failf "half-open probe failed: %s" m);
                let st = Client.breaker_stats pool in
                check int "circuit closed again" 1 st.Client.bk_closed;
                check int "still one trip" 1 st.Client.bk_tripped;
                check int "reopen counted" 1 st.Client.bk_reopened)));
  ]

(* ---------- coordinator revival ---------- *)

let coordinator_bindings n =
  List.init n (fun i ->
      if i mod 2 = 0 then
        { Coordinator.bd_name = "saxpy"; bd_source = saxpy;
          bd_function = "saxpy_chain";
          bd_params = [ ("n", 10 + i); ("reps", 2) ] }
      else
        { Coordinator.bd_name = "stream"; bd_source = stream;
          bd_function = "stream_triad"; bd_params = [ ("n", 100 + (10 * i)) ] })

let ok_key r =
  match r with
  | Ok resp ->
      Printf.sprintf "%s fpi=%s total=%s" resp.Serve.rs_status
        (Option.value (Serve.field resp "fpi") ~default:"?")
        (Option.value (Serve.field resp "total") ~default:"?")
  | Error m -> "error " ^ m

let revival_tests =
  let open Alcotest in
  [
    test_case "a daemon arriving mid-sweep revives its lost endpoint" `Slow
      (fun () ->
        (* one slow-but-live daemon carries the sweep; the second
           endpoint is dead at start, so its worker opens the circuit
           (co_daemons_lost) and half-open probes.  A daemon started
           there mid-sweep — exactly what the supervisor does after a
           restart — must revive the endpoint and rejoin. *)
        let stall =
          { Faults.none with Faults.seed; slow_p = 1.0; slow_ms = 20 }
        in
        let live_ep = unix_ep () in
        let late_sock = temp_name "mira-late" ^ ".sock" in
        let late_ep = Endpoint.Unix_sock late_sock in
        with_daemon ~wait:false
          ~cfg:(fun c -> { c with Serve.cfg_faults = Some stall })
          [ live_ep ]
          (fun ~eps:_ _slow ->
            let late = ref None in
            let starter =
              Thread.create
                (fun () ->
                  Unix.sleepf 0.5;
                  let server =
                    Serve.create
                      (Serve.default_config_endpoints ~endpoints:[ late_ep ])
                  in
                  let th =
                    Thread.create (fun () -> ignore (Serve.serve server)) ()
                  in
                  late := Some (server, th))
                ()
            in
            let n = 200 in
            let results, stats =
              Coordinator.run ~chunk:4 ~retries:1 ~backoff_ms:20
                [ live_ep; late_ep ]
                (coordinator_bindings n)
            in
            Thread.join starter;
            let server, th = Option.get !late in
            Fun.protect
              ~finally:(fun () ->
                Serve.stop server;
                Thread.join th;
                try Sys.remove late_sock with Sys_error _ -> ())
              (fun () ->
                check int "every binding answered" n
                  stats.Coordinator.co_finished;
                check (list int) "none unfinished" []
                  stats.Coordinator.co_unfinished;
                check int "the dead endpoint was lost" 1
                  stats.Coordinator.co_daemons_lost;
                check int "and revived" 1 stats.Coordinator.co_revived;
                check int "no duplicates" 0 stats.Coordinator.co_duplicates;
                Array.iter
                  (fun r ->
                    match r with
                    | Ok resp ->
                        check string "answered ok" "ok" resp.Serve.rs_status
                    | Error m -> failf "binding lost: %s" m)
                  results)));
  ]

(* ---------- coordinator timeouts ---------- *)

(* Run [f] on its own thread and wait at most [seconds] for it, so a
   coordinator that hangs fails its case instead of the whole suite
   (the stuck thread ends with the test process). *)
let within ~seconds what f =
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
       ());
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "%s did not return within %.1f s" what seconds
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
  in
  wait ()

(* a bound TCP listener that never accepts: connects land in its
   backlog and nothing is ever answered *)
let with_silent_listener f =
  let fd, ep = Endpoint.listen (Endpoint.Tcp ("127.0.0.1", 0)) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f ep)

let timeout_tests =
  let open Alcotest in
  [
    test_case "heartbeat 0: the chunk deadline still ends a silent read"
      `Quick (fun () ->
        with_silent_listener (fun ep ->
            let n = 4 in
            let _, stats =
              within ~seconds:2.0 "run against a silent listener" (fun () ->
                  Coordinator.run ~heartbeat_ms:0 ~deadline_ms:200 ~retries:0
                    [ ep ] (coordinator_bindings n))
            in
            check (list int) "every binding unfinished" (List.init n Fun.id)
              stats.Coordinator.co_unfinished));
    test_case "heartbeat 0: a silent endpoint beside a live daemon" `Quick
      (fun () ->
        with_silent_listener (fun silent ->
            with_daemon [ unix_ep () ] (fun ~eps _server ->
                let n = 16 in
                let results, stats =
                  within ~seconds:5.0 "run beside a silent listener"
                    (fun () ->
                      Coordinator.run ~chunk:4 ~heartbeat_ms:0 ~deadline_ms:200
                        ~retries:1 (silent :: eps) (coordinator_bindings n))
                in
                check int "every binding finished" n
                  stats.Coordinator.co_finished;
                Array.iter
                  (function
                    | Ok resp ->
                        check string "answered ok" "ok" resp.Serve.rs_status
                    | Error m -> failf "binding lost: %s" m)
                  results)));
    test_case "a deadline nearer than the heartbeat bounds each read" `Quick
      (fun () ->
        with_silent_listener (fun ep ->
            let _, stats =
              within ~seconds:1.5 "run with a 300 ms deadline" (fun () ->
                  Coordinator.run ~heartbeat_ms:3000 ~deadline_ms:300
                    ~retries:0 [ ep ] (coordinator_bindings 4))
            in
            check int "nothing finished" 0 stats.Coordinator.co_finished));
    test_case "a frame still arriving is not silence" `Quick (fun () ->
        (* every frame stalls 1.3 s between its header and its payload,
           longer than the 1 s heartbeat: the bytes of the header are
           the sign of life, and the half-read frame must survive the
           reads that time out around it *)
        let stall =
          { Faults.none with Faults.seed; slow_p = 1.0; slow_ms = 1300 }
        in
        with_daemon ~wait:false
          ~cfg:(fun c -> { c with Serve.cfg_faults = Some stall })
          [ unix_ep () ]
          (fun ~eps _server ->
            let results, stats =
              within ~seconds:15.0 "run against a slow daemon" (fun () ->
                  Coordinator.run ~heartbeat_ms:1000 ~retries:0 eps
                    (coordinator_bindings 1))
            in
            check int "no daemon lost" 0 stats.Coordinator.co_daemons_lost;
            match results with
            | [| Ok resp |] ->
                check string "answered ok" "ok" resp.Serve.rs_status
            | [| Error m |] -> failf "binding unanswered: %s" m
            | _ -> fail "one binding, one result"));
  ]

(* ---------- client wake-ups ---------- *)

let ping_ok pool =
  match Client.request pool Serve.Ping with
  | Ok { Serve.rs_status = "ok"; _ } -> ()
  | Ok r -> Alcotest.failf "ping answered %s" r.Serve.rs_status
  | Error m -> Alcotest.failf "ping: %s" m

let client_tests =
  let open Alcotest in
  [
    test_case "an idle pooled ping is not held back by polling" `Quick
      (fun () ->
        with_daemon [ unix_ep () ] (fun ~eps _server ->
            Client.with_pool eps (fun pool ->
                ping_ok pool;
                let lat =
                  Array.init 200 (fun _ ->
                      let t0 = Unix.gettimeofday () in
                      ping_ok pool;
                      Unix.gettimeofday () -. t0)
                in
                Array.sort compare lat;
                let p50_ms = lat.(100) *. 1000.0 in
                if p50_ms >= 0.5 then
                  failf "ping p50 %.3f ms, want under 0.5 ms" p50_ms)));
    test_case "a frame split across reader ticks is still answered" `Quick
      (fun () ->
        (* a 300 ms stall between every frame's header and payload:
           the reader wakes on several 50 ms ticks mid-frame *)
        let stall =
          { Faults.none with Faults.seed; slow_p = 1.0; slow_ms = 300 }
        in
        with_daemon ~wait:false
          ~cfg:(fun c -> { c with Serve.cfg_faults = Some stall })
          [ unix_ep () ]
          (fun ~eps _server ->
            Client.with_pool eps (fun pool ->
                let t0 = Unix.gettimeofday () in
                within ~seconds:5.0 "a stalled ping" (fun () -> ping_ok pool);
                check bool "the frame was split" true
                  (Unix.gettimeofday () -. t0 >= 0.3))));
    test_case "a tick ends a request at its deadline; the pool serves on"
      `Quick (fun () ->
        (* every analysis stalls its worker for 2 s (and every frame
           2 s on the wire) *)
        let stall =
          { Faults.none with Faults.seed; slow_p = 1.0; slow_ms = 2000 }
        in
        with_daemon ~wait:false
          ~cfg:(fun c -> { c with Serve.cfg_faults = Some stall })
          [ unix_ep () ]
          (fun ~eps _server ->
            (* no retries: one attempt, one deadline *)
            Client.with_pool ~retries:0 eps (fun pool ->
                let t0 = Unix.gettimeofday () in
                let eval =
                  Serve.Eval
                    { ev_name = "saxpy"; ev_source = saxpy;
                      ev_function = "saxpy_chain";
                      ev_params = [ ("n", 64); ("reps", 2) ];
                      ev_budget = Serve.no_budget }
                in
                (match Client.request ~deadline_ms:300 pool eval with
                | Ok _ -> fail "a stalled eval was answered in 300 ms"
                | Error m ->
                    check bool "the deadline error" true
                      (contains m "deadline"));
                let dt = Unix.gettimeofday () -. t0 in
                if dt >= 1.0 then failf "the deadline took %.2f s" dt;
                within ~seconds:10.0 "the next request" (fun () ->
                    ping_ok pool))));
    test_case "a request waiting for pipeline room fails alone" `Quick
      (fun () ->
        (* every analysis stalls its worker for 1 s (and every frame
           1 s on the wire), and the pool has one pipeline slot *)
        let stall =
          { Faults.none with Faults.seed; slow_p = 1.0; slow_ms = 1000 }
        in
        with_daemon ~wait:false
          ~cfg:(fun c -> { c with Serve.cfg_faults = Some stall })
          [ unix_ep () ]
          (fun ~eps _server ->
            Client.with_pool ~max_inflight:1 ~retries:0 eps (fun pool ->
                let eval =
                  Serve.Eval
                    { ev_name = "saxpy"; ev_source = saxpy;
                      ev_function = "saxpy_chain";
                      ev_params = [ ("n", 64); ("reps", 2) ];
                      ev_budget = Serve.no_budget }
                in
                let answer = ref None in
                let th =
                  Thread.create
                    (fun () ->
                      answer := Some (Client.request ~deadline_ms:10_000 pool eval))
                    ()
                in
                (* the eval takes the slot; the ping waits behind it *)
                Unix.sleepf 0.2;
                (match Client.request ~deadline_ms:300 pool Serve.Ping with
                | Ok _ -> fail "a ping without pipeline room was answered"
                | Error m ->
                    check bool "the deadline error" true
                      (contains m "deadline"));
                within ~seconds:10.0 "the eval on the wire" (fun () ->
                    Thread.join th);
                match !answer with
                | Some (Ok r) ->
                    check string "the eval is answered" "ok" r.Serve.rs_status
                | Some (Error m) -> failf "eval: %s" m
                | None -> fail "the eval never returned")));
    test_case "a connection death is charged once, not to its waiters"
      `Quick (fun () ->
        (* a listener that closes its one connection after 0.5 s: the
           ping on the wire fails with it, and the stats still waiting
           for the one pipeline slot was never written *)
        let fd, ep = Endpoint.listen (Endpoint.Tcp ("127.0.0.1", 0)) in
        let closer =
          Thread.create
            (fun () ->
              let c, _ = Unix.accept fd in
              Unix.sleepf 0.5;
              Unix.close c)
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            Thread.join closer;
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Client.with_pool ~max_inflight:1 ~retries:0 [ ep ] (fun pool ->
                let ping =
                  Thread.create
                    (fun () -> ignore (Client.request pool Serve.Ping))
                    ()
                in
                Unix.sleepf 0.1;
                (match
                   within ~seconds:5.0 "the queued stats" (fun () ->
                       Client.request pool Serve.Stats)
                 with
                | Ok _ -> fail "a closed connection answered"
                | Error _ -> ());
                Thread.join ping;
                let st = Client.breaker_stats pool in
                check int "no trip" 0 st.Client.bk_tripped;
                check int "the circuit is closed" 1 st.Client.bk_closed)));
  ]

(* ---------- the supervised fleet, over real processes ---------- *)

let spawned_pids err_file name =
  if not (Sys.file_exists err_file) then []
  else
    let marker = name ^ ": spawned pid " in
    read_file err_file |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match find_sub line marker with
           | None -> None
           | Some i ->
               let rest =
                 String.sub line
                   (i + String.length marker)
                   (String.length line - i - String.length marker)
               in
               let digits =
                 match String.index_opt rest ' ' with
                 | Some j -> String.sub rest 0 j
                 | None -> rest
               in
               int_of_string_opt digits)

(* a concrete port: the supervisor probes each child at the address
   it was given, so tcp port 0 is refused *)
let free_tcp_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

let stats_value (r : Serve.response) key =
  List.find_map
    (fun line ->
      match String.index_opt line '=' with
      | Some i when String.sub line 0 i = key ->
          Some (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    (String.split_on_char '\n' r.Serve.rs_body)

let fleet_tests =
  let open Alcotest in
  [
    test_case "a secret-bearing tcp child is probed with sealed frames"
      `Slow (fun () ->
        let secret = "supervise-secret" in
        let secret_file = temp_name "mira-sup-secret" in
        write_file secret_file (secret ^ "\n");
        let ep = Endpoint.Tcp ("127.0.0.1", free_tcp_port ()) in
        let sup_out = temp_name "mira-sup-out" in
        let sup_err = temp_name "mira-sup-err" in
        let sup_pid =
          spawn_capture
            [|
              mira_exe; "supervise"; "-e"; Endpoint.to_string ep;
              "--auth-secret-file"; secret_file; "--probe-interval-ms"; "100";
            |]
            sup_out sup_err
        in
        Fun.protect
          ~finally:(fun () ->
            kill_pid sup_pid;
            ignore (wait_exit sup_pid);
            List.iter kill_pid (spawned_pids sup_err "serve-0");
            List.iter
              (fun f -> try Sys.remove f with Sys_error _ -> ())
              [ secret_file; sup_out; sup_err ])
          (fun () ->
            check bool "child is up" true
              (Client.wait_ready ~timeout_s:20.0 ~auth_secret:secret ep);
            wait_for "the supervisor to see serve-0 ready" (fun () ->
                contains (read_file sup_err) "serve-0: ready");
            (* about ten more 100 ms probes; an unsealed one is an auth
               rejection, counted as a protocol error by the child *)
            Unix.sleepf 1.0;
            Client.with_pool ~auth_secret:secret [ ep ] (fun pool ->
                match Client.request pool Serve.Stats with
                | Ok r ->
                    check (option string) "protocol errors" (Some "0")
                      (stats_value r "protocol-errors")
                | Error m -> failf "authenticated stats: %s" m)));
    test_case
      "a supervised fleet survives a child SIGKILLed twice, exactly-once"
      `Slow (fun () ->
        let socks =
          List.init 3 (fun i ->
              temp_name (Printf.sprintf "mira-fleet-%d" i) ^ ".sock")
        in
        let eps = List.map (fun s -> Endpoint.Unix_sock s) socks in
        let sup_out = temp_name "mira-sup-out" in
        let sup_err = temp_name "mira-sup-err" in
        let argv =
          Array.of_list
            ([ mira_exe; "supervise" ]
            @ List.concat_map (fun s -> [ "-e"; "unix:" ^ s ]) socks
            @ [
                "--probe-interval-ms"; "100"; "--backoff-ms"; "50";
                "--serve-arg=--workers"; "--serve-arg=4";
              ])
        in
        let sup_pid = spawn_capture argv sup_out sup_err in
        Fun.protect
          ~finally:(fun () ->
            kill_pid sup_pid;
            ignore (wait_exit sup_pid);
            List.iter kill_pid (spawned_pids sup_err "serve-0");
            List.iter kill_pid (spawned_pids sup_err "serve-1");
            List.iter kill_pid (spawned_pids sup_err "serve-2");
            List.iter
              (fun s -> try Sys.remove s with Sys_error _ -> ())
              socks;
            List.iter
              (fun f -> try Sys.remove f with Sys_error _ -> ())
              [ sup_out; sup_err ])
          (fun () ->
            List.iter
              (fun ep ->
                check bool "daemon is up" true
                  (Client.wait_ready ~timeout_s:20.0 ep))
              eps;
            let victim_gen1 =
              match spawned_pids sup_err "serve-0" with
              | pid :: _ -> pid
              | [] -> fail "supervisor never logged serve-0's pid"
            in
            let n = 400 in
            let bindings = coordinator_bindings n in
            (* kill #1: from the progress callback, guaranteed
               mid-sweep; the survivors absorb the re-dispatch while
               the supervisor respawns the victim *)
            let killed = Atomic.make false in
            let on_progress ~finished ~total:_ =
              if finished >= 40 && not (Atomic.exchange killed true) then
                kill_pid victim_gen1
            in
            let results1, stats1 =
              Coordinator.run ~chunk:16 ~heartbeat_ms:500 ~backoff_ms:50
                ~on_progress eps bindings
            in
            check bool "victim killed mid-sweep" true (Atomic.get killed);
            check int "sweep 1: every binding answered" n
              stats1.Coordinator.co_finished;
            check (list int) "sweep 1: none unfinished" []
              stats1.Coordinator.co_unfinished;
            check int "sweep 1: no duplicates" 0
              stats1.Coordinator.co_duplicates;
            (* the supervisor must respawn generation 2; then kill it
               too, and demand generation 3 *)
            wait_for "serve-0 restart #1" (fun () ->
                List.length (spawned_pids sup_err "serve-0") >= 2);
            let victim_gen2 = List.nth (spawned_pids sup_err "serve-0") 1 in
            check bool "a fresh pid" true (victim_gen2 <> victim_gen1);
            check bool "restarted child is up" true
              (Client.wait_ready ~timeout_s:20.0 (List.hd eps));
            kill_pid victim_gen2;
            wait_for "serve-0 restart #2" (fun () ->
                List.length (spawned_pids sup_err "serve-0") >= 3);
            check bool "twice-restarted child is up" true
              (Client.wait_ready ~timeout_s:20.0 (List.hd eps));
            (* sweep 2 across the healed fleet: byte-identical to a
               single-daemon run, and the restarted child serves *)
            let results2, stats2 =
              Coordinator.run ~chunk:16 ~heartbeat_ms:500 eps bindings
            in
            check int "sweep 2: every binding answered" n
              stats2.Coordinator.co_finished;
            check int "sweep 2: no endpoints lost" 0
              stats2.Coordinator.co_daemons_lost;
            let reference, _ =
              Coordinator.run ~chunk:16 [ List.nth eps 1 ] bindings
            in
            check (list string) "sweep 1 identical to a single-daemon run"
              (Array.to_list (Array.map ok_key reference))
              (Array.to_list (Array.map ok_key results1));
            check (list string) "sweep 2 identical to a single-daemon run"
              (Array.to_list (Array.map ok_key reference))
              (Array.to_list (Array.map ok_key results2));
            (* generation 3 is observably serving: ready, and answering *)
            let fd = Endpoint.connect ~io_timeout_ms:2_000 (List.hd eps) in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                match Serve.roundtrip fd Serve.Health with
                | Ok r ->
                    check (option string) "generation 3 is ready"
                      (Some "ready") (Serve.field r "state")
                | Error m -> failf "health on the restarted child: %s" m);
            (* the supervisor's own log recorded the restarts *)
            check bool "restarts logged" true
              (contains (read_file sup_err) "restarting in");
            (* SIGTERM drains the whole tree cleanly *)
            Unix.kill sup_pid Sys.sigterm;
            (match wait_exit sup_pid with
            | Unix.WEXITED 0 -> ()
            | Unix.WEXITED c -> failf "supervise exited %d" c
            | _ -> fail "supervise did not exit normally");
            check bool "summary printed" true
              (contains (read_file sup_out) "mira supervise:")));
  ]

(* ---------- cache merge vs a live batch writer ---------- *)

let merge_race_tests =
  let open Alcotest in
  [
    test_case "cache merge races a live batch writer on the same DST" `Slow
      (fun () ->
        (* content addressing: a trailing newline is a distinct source
           (and cache entry) that analyzes identically *)
        let variant pad s = { s with Batch.src_text = s.Batch.src_text ^ pad } in
        let live = batch_sources @ List.map (variant "\n") batch_sources in
        let merged = List.map (variant "\n\n") batch_sources in
        let all = live @ merged in
        let cold, _ = Batch.run all in
        let src_dir = temp_name "mira-race-src" in
        let dst = temp_name "mira-race-dst" in
        let input_dir = temp_name "mira-race-in" in
        Sys.mkdir input_dir 0o755;
        List.iteri
          (fun i s ->
            write_file
              (Filename.concat input_dir (Printf.sprintf "v%d_%s" i s.Batch.src_name))
              s.Batch.src_text)
          live;
        ignore (Batch.run ~cache:(Batch.create_cache ~dir:src_dir ()) merged);
        (* a real second process writes DST while we merge into it:
           cross-process lock interplay, not thread-local lockf noise *)
        let out = temp_name "mira-race-out" in
        let pid =
          spawn_capture
            [|
              mira_exe; "batch"; input_dir; "--cache"; "--cache-dir"; dst;
              "--faults"; Printf.sprintf "seed=%d,slow=1,slow_ms=80" seed;
            |]
            out out
        in
        Fun.protect
          ~finally:(fun () ->
            kill_pid pid;
            ignore (wait_exit pid);
            List.iter rm_rf [ src_dir; dst; input_dir ];
            try Sys.remove out with Sys_error _ -> ())
          (fun () ->
            Unix.sleepf 0.1;
            let mg = Batch.merge_dirs ~dst [ src_dir ] in
            check bool "merge copied the other shard" true
              (mg.Batch.mg_copied > 0);
            check int "merge failed nothing" 0 mg.Batch.mg_failed;
            (match wait_exit pid with
            | Unix.WEXITED 0 -> ()
            | Unix.WEXITED c -> failf "live batch writer exited %d" c
            | _ -> fail "live batch writer died");
            (* the union must now serve a fully warm, byte-identical
               run: nothing the two writers raced on was lost or torn *)
            let warm, wstats =
              Batch.run ~cache:(Batch.create_cache ~dir:dst ()) all
            in
            check int "fully warm" 0 wstats.Batch.st_analyzed;
            check int "every source a disk hit" (List.length all)
              wstats.Batch.st_disk_hits;
            List.iter2
              (fun c w ->
                match (c, w) with
                | Ok (ca : Batch.analysis), Ok wa ->
                    check string "byte-identical python" ca.Batch.a_python
                      wa.Batch.a_python
                | _ -> fail "warm run failed where cold run succeeded")
              cold warm));
  ]

(* ---------- CLI contracts ---------- *)

let cli_tests =
  let open Alcotest in
  [
    test_case "eval-sweep --pipeline is gone: rejected as unknown" `Quick
      (fun () ->
        (* deprecated-with-warning through PR 9, removed in PR 10: the
           flag must now fail loudly instead of silently doing nothing *)
        let dir = temp_name "mira-dep" in
        Sys.mkdir dir 0o755;
        let src = Filename.concat dir "saxpy.mc" in
        write_file src saxpy;
        let sweep = Filename.concat dir "sweep.txt" in
        write_file sweep (Printf.sprintf "%s saxpy_chain n=16 reps=2\n" src);
        let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
        let pid =
          spawn_capture
            [|
              mira_exe; "eval-sweep"; sweep; "--pipeline"; "4"; "-e";
              "unix:" ^ Filename.concat dir "nothing.sock";
              "--dispatch-retries"; "0"; "--heartbeat-ms"; "100";
            |]
            out err
        in
        (match wait_exit pid with
        | Unix.WEXITED c when c <> 0 -> ()
        | Unix.WEXITED 0 -> fail "expected a usage error exit, got 0"
        | _ -> fail "eval-sweep died on a signal");
        let err_text = read_file err in
        check bool "names the unknown option" true
          (contains err_text "pipeline");
        rm_rf dir);
    test_case "supervise refuses an unprobeable tcp:...:0 endpoint" `Quick
      (fun () ->
        let out = temp_name "mira-sup0-out" in
        let pid =
          spawn_capture
            [| mira_exe; "supervise"; "-e"; "tcp:127.0.0.1:0" |]
            out out
        in
        (match wait_exit pid with
        | Unix.WEXITED 124 -> ()
        | Unix.WEXITED c -> failf "expected usage exit 124, got %d" c
        | _ -> fail "supervise did not exit normally");
        check bool "explains why" true (contains (read_file out) "port 0");
        try Sys.remove out with Sys_error _ -> ());
    test_case "supervise refuses a secret passed only through --serve-arg"
      `Quick (fun () ->
        let secret_file = temp_name "mira-sup-secret" in
        write_file secret_file "s\n";
        let out = temp_name "mira-supsa-out" in
        let pid =
          spawn_capture
            [|
              mira_exe; "supervise"; "-e";
              "unix:" ^ temp_name "mira-supsa" ^ ".sock";
              "--serve-arg=--auth-secret-file"; "--serve-arg=" ^ secret_file;
            |]
            out out
        in
        (match wait_exit pid with
        | Unix.WEXITED 124 -> ()
        | Unix.WEXITED c -> failf "expected usage exit 124, got %d" c
        | _ -> fail "supervise did not exit normally");
        check bool "names the flag to use" true
          (contains (read_file out) "give --auth-secret-file to supervise");
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ secret_file; out ]);
    test_case "a shed client call exits 3 and names its endpoint" `Quick
      (fun () ->
        (* the daemon sheds at accept with an untagged overloaded frame;
           the pool reads that as a transport failure *)
        with_daemon ~wait:false
          ~cfg:(fun c -> { c with Serve.cfg_max_inflight = 1 })
          [ unix_ep () ]
          (fun ~eps _server ->
            let ep = Endpoint.to_string (List.hd eps) in
            let fd = Endpoint.connect ~io_timeout_ms:2_000 (List.hd eps) in
            let out = temp_name "mira-shed-out" in
            let err = temp_name "mira-shed-err" in
            Fun.protect
              ~finally:(fun () ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                List.iter
                  (fun f -> try Sys.remove f with Sys_error _ -> ())
                  [ out; err ])
              (fun () ->
                (* an answered ping: this connection holds the one slot *)
                (match Serve.roundtrip fd Serve.Ping with
                | Ok { Serve.rs_status = "ok"; _ } -> ()
                | Ok r -> failf "raw ping answered %s" r.Serve.rs_status
                | Error m -> failf "raw ping: %s" m);
                let pid =
                  spawn_capture
                    [| mira_exe; "client"; "ping"; "--endpoint"; ep |]
                    out err
                in
                (match wait_exit pid with
                | Unix.WEXITED 3 -> ()
                | Unix.WEXITED c -> failf "expected exit 3, got %d" c
                | _ -> fail "mira client did not exit normally");
                check bool "stderr names the endpoint" true
                  (contains (read_file err) ep))));
  ]

let () =
  Alcotest.run "mira supervise"
    [
      ("crash-consistent publish", crash_tests);
      ("supervisor", supervisor_tests);
      ("breakers", breaker_tests);
      ("revival", revival_tests);
      ("coordinator timeouts", timeout_tests);
      ("client wake-ups", client_tests);
      ("supervised fleet", fleet_tests);
      ("merge race", merge_race_tests);
      ("cli", cli_tests);
    ]
