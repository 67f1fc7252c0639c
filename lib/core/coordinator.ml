(* Sweep coordination: chunked dispatch, per-binding completion
   tracking, shard re-dispatch.  See coordinator.mli for the contract;
   the load-bearing invariant here is that every unfinished binding is
   either on [sh_queue] or held by a running dispatcher, which
   re-queues its leftovers before it takes anything else — so short of
   the whole fleet dying, nothing is stranded.  Results are recorded
   first-wins under the one mutex; everything a dispatcher learns after
   its connection is closed is a counted duplicate, never a second
   answer.  Which daemon a chunk goes to, and when a daemon counts as
   dead or revived, is the {!Client} pool's decision alone. *)

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
  mutable sh_duplicates : int;
  mutable sh_fleet_dead : bool;  (* no circuit closed or half-open *)
}

let run ?(chunk = 64) ?(heartbeat_ms = 1000) ?(deadline_ms = 0) ?(retries = 3)
    ?(backoff_ms = 100) ?auth_secret ?(budget = Serve.no_budget) ?on_progress
    endpoints bindings =
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
      sh_duplicates = 0;
      sh_fleet_dead = false;
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
     and the chunk deadline, whichever are on, as every wait is.  One
     chunk in flight per daemon: a chunk already spreads over the
     daemon's own workers. *)
  let io_ms =
    if heartbeat_ms > 0 && (deadline_ms <= 0 || heartbeat_ms <= deadline_ms)
    then heartbeat_ms
    else deadline_ms
  in
  let pool =
    Client.create ~io_timeout_ms:io_ms ~max_inflight:1 ~retries ?auth_secret
      endpoints
  in
  (* one chunk through the pool; never raises.  [Error] carries the
     still-unanswered indices, ascending. *)
  let attempt idxs =
    let remaining = Hashtbl.create (Array.length idxs) in
    Array.iter (fun i -> Hashtbl.replace remaining i ()) idxs;
    let record_frame idx resp =
      if Hashtbl.mem remaining idx then begin
        Hashtbl.remove remaining idx;
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
    match Client.stream ~deadline_ms ~heartbeat_ms pool req on_frame with
    | Ok () -> Ok ()
    | Error _ | (exception _) ->
        Error
          (Hashtbl.fold (fun i () acc -> i :: acc) remaining []
          |> List.sort compare |> Array.of_list)
  in
  let fleet_dead () =
    let bk = Client.breaker_stats pool in
    bk.Client.bk_closed + bk.bk_half_open = 0
  in
  let rec dispatch () =
    Mutex.lock sh.sh_mutex;
    while
      Queue.is_empty sh.sh_queue && sh.sh_unfinished > 0
      && not sh.sh_fleet_dead
    do
      Condition.wait sh.sh_cond sh.sh_mutex
    done;
    if sh.sh_unfinished = 0 || sh.sh_fleet_dead then Mutex.unlock sh.sh_mutex
    else begin
      (* a re-queued chunk can only hold unfinished indices, but
         filtering is cheap and makes that a non-assumption *)
      let idxs =
        Array.of_list
          (List.filter
             (fun i -> sh.sh_results.(i) = None)
             (Array.to_list (Queue.pop sh.sh_queue)))
      in
      Mutex.unlock sh.sh_mutex;
      if Array.length idxs = 0 then dispatch ()
      else
        match attempt idxs with
        | Ok () -> dispatch ()
        | Error leftover ->
            (* re-queue before anything else: the chunk must never be
               stranded on a dispatcher that stops *)
            let dead = fleet_dead () in
            Mutex.lock sh.sh_mutex;
            if Array.length leftover > 0 then begin
              Queue.add leftover sh.sh_queue;
              sh.sh_redispatched <- sh.sh_redispatched + Array.length leftover
            end;
            if dead then sh.sh_fleet_dead <- true;
            Condition.broadcast sh.sh_cond;
            Mutex.unlock sh.sh_mutex;
            if not dead then begin
              Thread.delay (float_of_int backoff_ms /. 1000.);
              dispatch ()
            end
    end
  in
  let bk =
    Fun.protect
      ~finally:(fun () -> Client.close pool)
      (fun () ->
        List.map (fun _ -> Thread.create dispatch ()) endpoints
        |> List.iter Thread.join;
        Client.breaker_stats pool)
  in
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
      co_daemons_lost = bk.Client.bk_tripped;
      co_duplicates = sh.sh_duplicates;
      co_revived = bk.bk_reopened;
      co_unfinished = !unfinished;
    } )
