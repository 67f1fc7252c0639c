(* The self-healing fleet supervisor.  One single-threaded control
   loop owns every child: it forks/execs the configured [mira serve]
   processes, reaps exits (liveness), polls each child's [health] verb
   (readiness), and restarts whatever died or wedged — with
   exponential backoff, deterministic jitter, and a per-child restart
   storm breaker so a child that can never come up fails the whole
   supervisor loudly instead of burning CPU forever.

   Everything is time-and-poll driven off one loop tick (no threads,
   no self-pipe): signals only flip [t_stopping], and the loop notices
   within a tick.  That keeps [stop] safe to call from a signal
   handler. *)

type child_spec = {
  cs_name : string;
  cs_argv : string array;
  cs_endpoint : Endpoint.t;
}

type config = {
  sp_children : child_spec list;
  sp_probe_interval_ms : int;
  sp_wedge_timeout_ms : int;
  sp_backoff_base_ms : int;
  sp_backoff_max_ms : int;
  sp_storm_failures : int;
  sp_storm_window_s : float;
  sp_grace_ms : int;
  sp_seed : int;
  sp_auth_secret : string option;
  sp_log : string -> unit;
}

let default_config ~children =
  {
    sp_children = children;
    sp_probe_interval_ms = 300;
    sp_wedge_timeout_ms = 10_000;
    sp_backoff_base_ms = 200;
    sp_backoff_max_ms = 5_000;
    sp_storm_failures = 5;
    sp_storm_window_s = 30.0;
    sp_grace_ms = 5_000;
    sp_seed = 0;
    sp_auth_secret = None;
    sp_log = (fun m -> Printf.eprintf "mira supervise: %s\n%!" m);
  }

type stats = {
  su_spawns : int;
  su_restarts : int;
  su_wedge_kills : int;
  su_storms : int;
}

type outcome = Drained | Storm of string
(* [Storm child] — that child hit the restart-storm breaker *)

(* one supervised process slot; [ch_pid = None] means the slot is
   between generations, waiting for [ch_restart_at] *)
type child = {
  ch_spec : child_spec;
  mutable ch_pid : int option;
  mutable ch_spawned_at : float;
  mutable ch_ready_seen : bool;  (* this generation reached ready *)
  mutable ch_last_alive : float;  (* last exit-free, probe-passing moment *)
  mutable ch_restart_at : float;
  mutable ch_attempt : int;  (* consecutive failed generations *)
  mutable ch_failures : float list;  (* storm window, newest first *)
}

type t = {
  t_cfg : config;
  t_children : child list;
  t_stopping : bool Atomic.t;
  mutable t_spawns : int;
  mutable t_restarts : int;
  mutable t_wedge_kills : int;
  mutable t_storms : int;
}

let create cfg =
  if cfg.sp_children = [] then failwith "supervise: no children configured";
  {
    t_cfg = cfg;
    t_children =
      List.map
        (fun spec ->
          {
            ch_spec = spec;
            ch_pid = None;
            ch_spawned_at = 0.0;
            ch_ready_seen = false;
            ch_last_alive = 0.0;
            ch_restart_at = 0.0;  (* spawn immediately *)
            ch_attempt = 0;
            ch_failures = [];
          })
        cfg.sp_children;
    t_stopping = Atomic.make false;
    t_spawns = 0;
    t_restarts = 0;
    t_wedge_kills = 0;
    t_storms = 0;
  }

let stats t =
  {
    su_spawns = t.t_spawns;
    su_restarts = t.t_restarts;
    su_wedge_kills = t.t_wedge_kills;
    su_storms = t.t_storms;
  }

let stop t = Atomic.set t.t_stopping true

(* deterministic jitter: a hash, not a random draw, so a supervised
   chaos run replays the same restart timeline for the same seed *)
let backoff_ms cfg ~name ~attempt =
  let base = max 1 cfg.sp_backoff_base_ms in
  let exp = base * (1 lsl min 6 (max 0 (attempt - 1))) in
  let capped = min cfg.sp_backoff_max_ms exp in
  let jitter =
    Char.code
      (Digest.string (Printf.sprintf "%d:%s:%d" cfg.sp_seed name attempt)).[0]
    * base / 256
  in
  capped + jitter

(* ---------- lifecycle ---------- *)

(* OCaml encodes standard signals as negative numbers (Sys.sigkill is
   -7), so name the common ones: "killed by SIGKILL", not "-7" *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sighup then "SIGHUP"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigquit then "SIGQUIT"
  else if s = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" s

let render_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

let spawn t ch =
  let cfg = t.t_cfg in
  let argv = ch.ch_spec.cs_argv in
  match
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  with
  | pid ->
      t.t_spawns <- t.t_spawns + 1;
      ch.ch_pid <- Some pid;
      ch.ch_spawned_at <- Unix.gettimeofday ();
      ch.ch_last_alive <- ch.ch_spawned_at;
      ch.ch_ready_seen <- false;
      cfg.sp_log
        (Printf.sprintf "%s: spawned pid %d (%s)" ch.ch_spec.cs_name pid
           (Endpoint.to_string ch.ch_spec.cs_endpoint));
      true
  | exception e ->
      cfg.sp_log
        (Printf.sprintf "%s: spawn failed: %s" ch.ch_spec.cs_name
           (Printexc.to_string e));
      false

(* a child generation ended badly (exit, wedge kill, spawn failure):
   either schedule the respawn or report a restart storm *)
let handle_failure t ch ~reason =
  let cfg = t.t_cfg in
  let now = Unix.gettimeofday () in
  ch.ch_pid <- None;
  ch.ch_attempt <- ch.ch_attempt + 1;
  ch.ch_failures <-
    now
    :: List.filter (fun f -> now -. f <= cfg.sp_storm_window_s) ch.ch_failures;
  if List.length ch.ch_failures >= max 1 cfg.sp_storm_failures then begin
    t.t_storms <- t.t_storms + 1;
    cfg.sp_log
      (Printf.sprintf "%s: %s — %d failures in %.0fs, giving up"
         ch.ch_spec.cs_name reason
         (List.length ch.ch_failures)
         cfg.sp_storm_window_s);
    `Storm
  end
  else begin
    let delay = backoff_ms cfg ~name:ch.ch_spec.cs_name ~attempt:ch.ch_attempt in
    ch.ch_restart_at <- now +. (float_of_int delay /. 1000.0);
    t.t_restarts <- t.t_restarts + 1;
    cfg.sp_log
      (Printf.sprintf "%s: %s — restarting in %d ms (attempt %d)"
         ch.ch_spec.cs_name reason delay ch.ch_attempt);
    `Restarting
  end

let kill_child signal ch =
  match ch.ch_pid with
  | None -> ()
  | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())

let reap_child ?(block = false) ch =
  match ch.ch_pid with
  | None -> None
  | Some pid -> (
      match Unix.waitpid (if block then [] else [ Unix.WNOHANG ]) pid with
      | 0, _ -> None
      | _, status -> Some status
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          (* already reaped somehow; treat as an exit we missed *)
          Some (Unix.WEXITED 0)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None)

(* SIGTERM fan-out, then a bounded WNOHANG drain, then SIGKILL for
   whatever ignored the term — the shutdown path and the storm path
   share this *)
let drain_fleet t =
  let cfg = t.t_cfg in
  List.iter (kill_child Sys.sigterm) t.t_children;
  let deadline =
    Unix.gettimeofday () +. (float_of_int cfg.sp_grace_ms /. 1000.0)
  in
  let rec wait () =
    let still =
      List.filter
        (fun ch ->
          match reap_child ch with
          | Some status ->
              cfg.sp_log
                (Printf.sprintf "%s: drained (%s)" ch.ch_spec.cs_name
                   (render_status status));
              ch.ch_pid <- None;
              false
          | None -> ch.ch_pid <> None)
        t.t_children
    in
    if still <> [] then
      if Unix.gettimeofday () >= deadline then begin
        List.iter
          (fun ch ->
            cfg.sp_log
              (Printf.sprintf "%s: did not drain, killing"
                 ch.ch_spec.cs_name);
            kill_child Sys.sigkill ch;
            ignore (reap_child ~block:true ch);
            ch.ch_pid <- None)
          still
      end
      else begin
        Unix.sleepf 0.05;
        wait ()
      end
  in
  wait ()

let run t =
  let cfg = t.t_cfg in
  let wedge_s = float_of_int cfg.sp_wedge_timeout_ms /. 1000.0 in
  let probe_every = float_of_int (max 50 cfg.sp_probe_interval_ms) /. 1000.0 in
  let next_probe = ref 0.0 in
  let storm = ref None in
  (* one child's tick: reap → probe → respawn, reporting `Storm up *)
  let tick_child now probing ch =
    match ch.ch_pid with
    | Some _ -> (
        match reap_child ch with
        | Some status ->
            (* liveness: the process is gone *)
            if handle_failure t ch ~reason:(render_status status) = `Storm
            then storm := Some ch.ch_spec.cs_name
        | None ->
            if probing then (
              match
                Client.probe ?auth_secret:cfg.sp_auth_secret
                  ~timeout_ms:cfg.sp_probe_interval_ms ch.ch_spec.cs_endpoint
              with
              | Client.Ready | Client.Draining ->
                  (* draining counts as alive: it is finishing real
                     work, not wedged — and only our own shutdown
                     fan-out puts a supervised child there *)
                  ch.ch_last_alive <- now;
                  if not ch.ch_ready_seen then begin
                    ch.ch_ready_seen <- true;
                    ch.ch_attempt <- 0;
                    cfg.sp_log
                      (Printf.sprintf "%s: ready" ch.ch_spec.cs_name)
                  end
              | Client.Starting | Client.Unreachable ->
                  (* readiness: answering [starting] forever and not
                     answering at all are the same wedge *)
                  if now -. ch.ch_last_alive > wedge_s then begin
                    t.t_wedge_kills <- t.t_wedge_kills + 1;
                    kill_child Sys.sigkill ch;
                    ignore (reap_child ~block:true ch);
                    if
                      handle_failure t ch
                        ~reason:
                          (Printf.sprintf "wedged (unready for %.1fs)"
                             (now -. ch.ch_last_alive))
                      = `Storm
                    then storm := Some ch.ch_spec.cs_name
                  end))
    | None ->
        if now >= ch.ch_restart_at then
          if not (spawn t ch) then
            if handle_failure t ch ~reason:"spawn failed" = `Storm then
              storm := Some ch.ch_spec.cs_name
  in
  while (not (Atomic.get t.t_stopping)) && !storm = None do
    let now = Unix.gettimeofday () in
    let probing = now >= !next_probe in
    if probing then next_probe := now +. probe_every;
    List.iter (tick_child now probing) t.t_children;
    if (not (Atomic.get t.t_stopping)) && !storm = None then
      Unix.sleepf 0.05
  done;
  drain_fleet t;
  match !storm with Some name -> Storm name | None -> Drained
