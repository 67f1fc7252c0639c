(* Sweep coordination: chunked dispatch, per-binding completion
   tracking, shard re-dispatch.  See coordinator.mli for the contract;
   the load-bearing invariant here is that every unfinished binding is
   either on [sh_queue] or held by a live worker, and a worker
   re-queues its leftovers *before* it retires — so short of the whole
   fleet dying, nothing is stranded.  Results are recorded first-wins
   under the one mutex; everything a worker learns after its
   connection is closed is a counted duplicate, never a second answer. *)

type binding = {
  bd_name : string;
  bd_source : string;
  bd_function : string;
  bd_params : (string * int) list;
}

type stats = {
  co_total : int;
  co_finished : int;
  co_redispatched : int;
  co_daemons_lost : int;
  co_duplicates : int;
  co_revived : int;
  co_unfinished : int list;
}

type shared = {
  sh_mutex : Mutex.t;
  sh_cond : Condition.t;
  sh_queue : int array Queue.t;  (* chunks of binding indices *)
  sh_results : (Serve.response, string) result option array;
  mutable sh_unfinished : int;
  mutable sh_redispatched : int;
  mutable sh_daemons_lost : int;
  mutable sh_duplicates : int;
  mutable sh_revived : int;
  mutable sh_live : int;  (* workers still running *)
  mutable sh_active : int;  (* workers serving (not probing a lost daemon) *)
}

(* what one chunk attempt came to *)
type attempt_result =
  | Chunk_done
  | Shard_lost of {
      lv_leftover : int array;  (* still-unanswered indices, ascending *)
      lv_progressed : bool;  (* any binding recorded this attempt *)
    }

let run ?(chunk = 64) ?(heartbeat_ms = 1000) ?(deadline_ms = 0) ?(retries = 3)
    ?(backoff_ms = 100) ?(revive_ms = 10_000) ?auth_secret
    ?(budget = Serve.no_budget) ?on_progress endpoints bindings =
  if endpoints = [] then invalid_arg "Coordinator.run: empty endpoint list";
  if chunk <= 0 then invalid_arg "Coordinator.run: chunk must be positive";
  let bindings = Array.of_list bindings in
  let total = Array.length bindings in
  (* chunks dedupe sources by name, so one name carrying two texts
     would silently analyze the wrong program — refuse up front *)
  let sources = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      match Hashtbl.find_opt sources b.bd_name with
      | None -> Hashtbl.add sources b.bd_name b.bd_source
      | Some s when String.equal s b.bd_source -> ()
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Coordinator.run: source %S bound to two different texts"
               b.bd_name))
    bindings;
  let sh =
    {
      sh_mutex = Mutex.create ();
      sh_cond = Condition.create ();
      sh_queue = Queue.create ();
      sh_results = Array.make total None;
      sh_unfinished = total;
      sh_redispatched = 0;
      sh_daemons_lost = 0;
      sh_duplicates = 0;
      sh_revived = 0;
      sh_live = 0;
      sh_active = 0;
    }
  in
  let i = ref 0 in
  while !i < total do
    let n = min chunk (total - !i) in
    let base = !i in
    Queue.add (Array.init n (fun j -> base + j)) sh.sh_queue;
    i := !i + n
  done;
  (* first-wins recording; the progress callback runs outside the lock
     (it may do arbitrary work — the kill test SIGKILLs a daemon from
     it) *)
  let record idx r =
    Mutex.lock sh.sh_mutex;
    let finished =
      match sh.sh_results.(idx) with
      | Some _ ->
          sh.sh_duplicates <- sh.sh_duplicates + 1;
          None
      | None ->
          sh.sh_results.(idx) <- Some r;
          sh.sh_unfinished <- sh.sh_unfinished - 1;
          if sh.sh_unfinished = 0 then Condition.broadcast sh.sh_cond;
          Some (total - sh.sh_unfinished)
    in
    Mutex.unlock sh.sh_mutex;
    match (finished, on_progress) with
    | Some finished, Some f -> f ~finished ~total
    | _ -> ()
  in
  (* connects and writes are bounded by the nearer of the heartbeat
     and the chunk deadline, whichever are on, as every wait is; the
     revival probe always gets a positive timeout, or one silent peer
     would park its worker (and [run]'s final join) forever *)
  let io_ms =
    if heartbeat_ms > 0 && (deadline_ms <= 0 || heartbeat_ms <= deadline_ms)
    then heartbeat_ms
    else deadline_ms
  in
  let probe_ms = if io_ms > 0 then io_ms else 1000 in
  let worker wi ep =
    let ep_str = Endpoint.to_string ep in
    (* the worker's one connection: Client applies the liveness rule
       (heartbeat, deadline) and drops frames of abandoned chunks *)
    let client =
      Client.create ~io_timeout_ms:io_ms ~retries:0 ?auth_secret [ ep ]
    in
    let fails = ref 0 in
    (* The half-open wait of a worker whose daemon was lost: instead of
       retiring for good, keep probing the endpoint — a supervisor may
       be restarting it — and rejoin the sweep when it answers.  The
       wait gives up when the sweep finishes without us, when no other
       worker is actively serving (the old prompt-termination
       behaviour: a fleet that is {e all} dead must not sit out the
       whole revive window), or after [revive_ms]. *)
    let probe_for_revival () =
      let deadline =
        Unix.gettimeofday () +. (float_of_int revive_ms /. 1000.)
      in
      let rec go () =
        Mutex.lock sh.sh_mutex;
        let worth_waiting = sh.sh_unfinished > 0 && sh.sh_active > 0 in
        Mutex.unlock sh.sh_mutex;
        if (not worth_waiting) || Unix.gettimeofday () > deadline then false
        (* a daemon reporting itself starting or draining is not
           ready to take chunks yet *)
        else if
          Client.probe ?auth_secret ~timeout_ms:probe_ms ep = Client.Ready
        then true
        else begin
          Thread.delay 0.2;
          go ()
        end
      in
      go ()
    in
    let backoff () =
      (* bounded exponential backoff; the jitter is a hash, not a
         random draw, so a fault-injected run replays byte-identically *)
      let base = min 5000 (backoff_ms * (1 lsl min 6 (!fails - 1))) in
      let jitter =
        Char.code
          (Digest.string (Printf.sprintf "%d:%d:%s" wi !fails ep_str)).[0]
        * base / 1024
      in
      Thread.delay (float_of_int (base + jitter) /. 1000.)
    in
    (* one chunk on this endpoint; never raises *)
    let attempt idxs =
      let remaining = Hashtbl.create (Array.length idxs) in
      Array.iter (fun i -> Hashtbl.replace remaining i ()) idxs;
      let progressed = ref false in
      let leftover () =
        Hashtbl.fold (fun i () acc -> i :: acc) remaining []
        |> List.sort compare |> Array.of_list
      in
      let record_frame idx resp =
        if Hashtbl.mem remaining idx then begin
          Hashtbl.remove remaining idx;
          progressed := true;
          record idx (Ok resp)
        end
        else if idx >= 0 && idx < total then
          (* an index we did not send on this chunk: a daemon echoing a
             stale frame — first-wins accounting absorbs it *)
          record idx (Ok resp)
      in
      (* never trust the daemon's count — strand nothing *)
      let fail_remaining msg =
        Hashtbl.iter (fun i () -> record i (Error msg)) remaining;
        Hashtbl.reset remaining
      in
      let names =
        let seen = Hashtbl.create 8 in
        Array.fold_left
          (fun acc i ->
            let n = bindings.(i).bd_name in
            if Hashtbl.mem seen n then acc
            else begin
              Hashtbl.add seen n ();
              n :: acc
            end)
          [] idxs
        |> List.rev
      in
      let req =
        Serve.Sweep
          {
            sw_sources = List.map (fun n -> (n, Hashtbl.find sources n)) names;
            sw_bindings =
              Array.to_list idxs
              |> List.map (fun i ->
                     let b = bindings.(i) in
                     {
                       Serve.sb_index = i;
                       sb_source = b.bd_name;
                       sb_function = b.bd_function;
                       sb_params = b.bd_params;
                     });
            sw_budget = budget;
          }
      in
      let on_frame resp =
        if Serve.field resp "sweep-done" = Some "1" then begin
          (* terminal frame; a well-behaved daemon has answered
             everything *)
          fail_remaining "sweep terminated without an answer";
          `Done
        end
        else
          match Option.bind (Serve.field resp "binding") int_of_string_opt with
          | Some idx ->
              record_frame idx resp;
              `More
          | None ->
              (* a request-level rejection (auth, bad-request): retrying
                 elsewhere cannot help, so fail the chunk's remaining
                 bindings instead of bouncing them around the fleet
                 forever *)
              let detail =
                match Serve.field resp "message" with
                | Some m -> m
                | None -> String.trim resp.Serve.rs_body
              in
              fail_remaining
                (Printf.sprintf "sweep rejected (%s): %s"
                   (Option.value (Serve.field resp "code")
                      ~default:resp.Serve.rs_status)
                   detail);
              `Done
      in
      match Client.stream ~deadline_ms ~heartbeat_ms client req on_frame with
      | Ok () -> Chunk_done
      | Error _ | (exception _) ->
          Shard_lost { lv_leftover = leftover (); lv_progressed = !progressed }
    in
    let rec loop () =
      Mutex.lock sh.sh_mutex;
      while Queue.is_empty sh.sh_queue && sh.sh_unfinished > 0 do
        Condition.wait sh.sh_cond sh.sh_mutex
      done;
      if sh.sh_unfinished = 0 then Mutex.unlock sh.sh_mutex
      else begin
        let idxs = Queue.pop sh.sh_queue in
        Mutex.unlock sh.sh_mutex;
        (* a re-queued chunk can only hold unfinished indices, but
           filtering is cheap and makes that a non-assumption *)
        let idxs =
          Array.to_list idxs
          |> List.filter (fun i ->
                 Mutex.lock sh.sh_mutex;
                 let unfinished = sh.sh_results.(i) = None in
                 Mutex.unlock sh.sh_mutex;
                 unfinished)
          |> Array.of_list
        in
        if Array.length idxs = 0 then loop ()
        else
          match attempt idxs with
          | Chunk_done ->
              fails := 0;
              loop ()
          | Shard_lost { lv_leftover; lv_progressed } ->
              if lv_progressed then fails := 0;
              incr fails;
              (* re-queue BEFORE deciding whether to retire: the chunk
                 must never be stranded on a dying worker *)
              Mutex.lock sh.sh_mutex;
              if Array.length lv_leftover > 0 then begin
                Queue.add lv_leftover sh.sh_queue;
                sh.sh_redispatched <-
                  sh.sh_redispatched + Array.length lv_leftover;
                Condition.broadcast sh.sh_cond
              end;
              Mutex.unlock sh.sh_mutex;
              if !fails > retries then begin
                (* circuit open: the daemon is lost.  Step out of the
                   active set, then wait half-open for a revival
                   instead of retiring outright. *)
                Mutex.lock sh.sh_mutex;
                sh.sh_daemons_lost <- sh.sh_daemons_lost + 1;
                sh.sh_active <- sh.sh_active - 1;
                Mutex.unlock sh.sh_mutex;
                if probe_for_revival () then begin
                  Mutex.lock sh.sh_mutex;
                  sh.sh_active <- sh.sh_active + 1;
                  sh.sh_revived <- sh.sh_revived + 1;
                  Mutex.unlock sh.sh_mutex;
                  fails := 0;
                  loop ()
                end
                (* else: retire — the fall-through releases the worker *)
              end
              else begin
                backoff ();
                loop ()
              end
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Client.close client;
        Mutex.lock sh.sh_mutex;
        sh.sh_live <- sh.sh_live - 1;
        Condition.broadcast sh.sh_cond;
        Mutex.unlock sh.sh_mutex)
      loop
  in
  sh.sh_live <- List.length endpoints;
  sh.sh_active <- List.length endpoints;
  let threads =
    List.mapi (fun wi ep -> Thread.create (fun () -> worker wi ep) ()) endpoints
  in
  Mutex.lock sh.sh_mutex;
  while sh.sh_unfinished > 0 && sh.sh_live > 0 do
    Condition.wait sh.sh_cond sh.sh_mutex
  done;
  Mutex.unlock sh.sh_mutex;
  List.iter Thread.join threads;
  let unfinished = ref [] in
  for i = total - 1 downto 0 do
    if sh.sh_results.(i) = None then unfinished := i :: !unfinished
  done;
  let results =
    Array.map
      (function
        | Some r -> r
        | None ->
            Error "unfinished: every daemon was lost before this binding was answered")
      sh.sh_results
  in
  ( results,
    {
      co_total = total;
      co_finished = total - List.length !unfinished;
      co_redispatched = sh.sh_redispatched;
      co_daemons_lost = sh.sh_daemons_lost;
      co_duplicates = sh.sh_duplicates;
      co_revived = sh.sh_revived;
      co_unfinished = !unfinished;
    } )
