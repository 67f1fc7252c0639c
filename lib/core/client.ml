(* The pooled daemon client.  Layering, bottom up:

   - conn: one pipelined connection — a writer (serialized under the
     connection mutex) and a reader thread that queues each response
     frame on the slot its echoed id= tag names, then broadcasts the
     one condition every waiter blocks on: after every read (a frame,
     part of one, or a [tick] of silence) and when the connection dies;
   - exchange: one tagged request on a conn, its frames handed to the
     caller as they arrive, under the liveness rule of client.mli;
     [request] is the exchange that stops at its first frame;
   - pool: one conn per endpoint, opened lazily, with round-robin +
     health-aware dispatch and reconnect-with-retry for idempotent
     requests;
   - sweep: fan a request batch over the pool on worker threads,
     merging results positionally so the output is in input order.

   Death discipline: a connection dies exactly once ([die] sets
   [c_dead] under the mutex and shuts the socket down so the blocked
   reader wakes); the reader owns the descriptor close, taken under
   the same mutex after it exits, so no writer can race a descriptor
   reuse.  Every waiter observes either its frames or the death
   message — never silence. *)

(* the reader's socket timeout: the longest a waiter sleeps between
   checks of its deadline and heartbeat *)
let tick_s = 0.05

type conn = {
  c_fd : Unix.file_descr;
  c_mu : Mutex.t;
  c_wake : Condition.t;  (* broadcast by the reader; every waiter blocks here *)
  mutable c_next : int;
  c_slots : (string, Serve.response Queue.t) Hashtbl.t;
  mutable c_dead : string option;
  mutable c_inflight : int;
  mutable c_rx : float;  (* when the reader last received a byte *)
  mutable c_reader : Thread.t option;
  c_secret : string option;
      (* shared auth secret: seal every request, require a valid MAC
         on every response *)
}

(* with [c_mu] held *)
let die conn msg =
  if conn.c_dead = None then begin
    conn.c_dead <- Some msg;
    (* wake the reader out of its blocking read; it will close the
       descriptor once no writer can hold it *)
    (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Condition.broadcast conn.c_wake
  end

let kill conn msg =
  Mutex.lock conn.c_mu;
  die conn msg;
  Mutex.unlock conn.c_mu

(* one answer, with [c_mu] held *)
let route conn resp =
  match Serve.field resp "id" with
  | None ->
      (* the only legitimate untagged response is the shed frame the
         accept loop sends before dropping us *)
      die conn
        (if resp.Serve.rs_status = "overloaded" then "server overloaded"
         else "untagged response on a pipelined connection")
  | Some id -> (
      match Hashtbl.find_opt conn.c_slots id with
      | Some frames -> Queue.add resp frames
      | None ->
          (* a heartbeat's answer, or the late answer of an abandoned
             request: the stream itself is in sync *)
          ())

let reader conn =
  let dec = Serve.decoder () in
  let rec loop () =
    let event =
      match Serve.decode dec conn.c_fd with
      | Ok Serve.Blocked -> `Tick
      | Ok Serve.Partial -> `Bytes
      | Ok (Serve.Frame payload) -> (
          (* verified and parsed outside the lock: the MAC of a large
             answer must not hold up the connection's writers *)
          match Serve.open_response ?auth_secret:conn.c_secret payload with
          | Ok resp -> `Answer resp
          | Error m -> `Lost m)
      | Error e -> `Lost (Serve.frame_error_to_string e)
    in
    Mutex.lock conn.c_mu;
    (match event with
    | `Tick -> ()
    | `Bytes -> conn.c_rx <- Unix.gettimeofday ()
    | `Answer resp ->
        conn.c_rx <- Unix.gettimeofday ();
        route conn resp
    | `Lost m -> die conn m);
    Condition.broadcast conn.c_wake;
    let live = conn.c_dead = None in
    Mutex.unlock conn.c_mu;
    if live then loop ()
  in
  (try loop () with e -> kill conn (Printexc.to_string e));
  (* dead now, so no writer will touch the descriptor again *)
  Mutex.lock conn.c_mu;
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  Mutex.unlock conn.c_mu

let make_conn ~io_timeout_ms ?auth_secret ep =
  let fd = Endpoint.connect ~io_timeout_ms ep in
  (* reads tick; writes keep [io_timeout_ms] *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO tick_s
   with Unix.Unix_error _ -> ());
  let conn =
    {
      c_fd = fd;
      c_mu = Mutex.create ();
      c_wake = Condition.create ();
      c_next = 1;
      c_slots = Hashtbl.create 16;
      c_dead = None;
      c_inflight = 0;
      c_rx = Unix.gettimeofday ();
      c_reader = None;
      c_secret = auth_secret;
    }
  in
  conn.c_reader <- Some (Thread.create reader conn);
  conn

(* One tagged request on an open connection: wait for pipeline room,
   send, then hand each response frame to [on_frame] on this thread,
   in arrival order, until it answers [`Done].  Returns the outcome and
   how many frames [on_frame] saw; [`Unsent] is a deadline that passed
   while the pipeline stayed full, [`Unwritten] a connection that died
   while this request still waited for room, [`Lost] a connection that
   failed this request's own write or its answer.  Every
   exit gives back the room it took and forgets the slot, so later
   frames for it are dropped. *)
let exchange conn ~max_inflight ~deadline_ms ~heartbeat_ms req on_frame =
  let secs ms = if ms <= 0 then infinity else float_of_int ms /. 1000.0 in
  let deadline = Unix.gettimeofday () +. secs deadline_ms in
  let beat = secs heartbeat_ms in
  let frames = Queue.create () and tag = ref None and seen = ref 0 in
  let tried = ref false in
  let sent_at = ref 0.0 and pinged = ref 0.0 in
  (* one tagged frame out, with [c_mu] held (writes are serialized);
     a failed write kills the connection *)
  let send req =
    let id = string_of_int conn.c_next in
    conn.c_next <- conn.c_next + 1;
    match Serve.send ?auth_secret:conn.c_secret ~id conn.c_fd req with
    | () -> Some id
    | exception e ->
        die conn
          ("write: "
          ^
          match e with
          | Unix.Unix_error (e, _, _) -> Unix.error_message e
          | e -> Printexc.to_string e);
        None
  in
  let finish r =
    Option.iter
      (fun id ->
        Hashtbl.remove conn.c_slots id;
        conn.c_inflight <- conn.c_inflight - 1;
        Condition.broadcast conn.c_wake)
      !tag;
    Mutex.unlock conn.c_mu;
    (r, !seen)
  in
  let rec step () =
    let now = Unix.gettimeofday () in
    let heard = Float.max !sent_at conn.c_rx in
    if not (Queue.is_empty frames) then begin
      let resp = Queue.pop frames in
      Mutex.unlock conn.c_mu;
      incr seen;
      match on_frame resp with
      | `More ->
          Mutex.lock conn.c_mu;
          step ()
      | `Done ->
          Mutex.lock conn.c_mu;
          finish (Ok ())
      | exception e ->
          Mutex.lock conn.c_mu;
          ignore (finish (Ok ()));
          raise e
    end
    else
      match conn.c_dead with
      | Some m when not !tried ->
          finish (Error (`Unwritten ("connection: " ^ m)))
      | Some m -> finish (Error (`Lost ("connection: " ^ m)))
      | None when now >= deadline && !tag = None ->
          (* never sent: the requests holding the pipeline may be
             healthy, so this one fails alone *)
          finish (Error (`Unsent "request deadline exceeded before it was sent"))
      | None when now >= deadline ->
          (* wedged or merely slow?  Undecidable from here — treat the
             connection as lost so nothing queues behind it *)
          die conn "request deadline exceeded";
          finish (Error (`Lost "request deadline exceeded (daemon wedged?)"))
      | None when !tag = None && conn.c_inflight < max_inflight ->
          tried := true;
          tag := send req;
          Option.iter
            (fun id ->
              Hashtbl.replace conn.c_slots id frames;
              conn.c_inflight <- conn.c_inflight + 1;
              sent_at := now)
            !tag;
          step ()
      | None when !tag <> None && !pinged > heard && now -. !pinged >= beat ->
          (* the ping went unanswered too: the daemon is gone *)
          die conn "heartbeat timeout";
          finish (Error (`Lost "heartbeat timeout"))
      | None when !tag <> None && !pinged <= heard && now -. heard >= beat ->
          (* a silent interval: ask, on the same connection — the daemon
             answers pings inline whatever it is doing *)
          if send Serve.Ping <> None then pinged := now;
          step ()
      | None ->
          (* nothing to do until the reader's next broadcast; a full
             pipeline backpressures this caller, not the wire *)
          Condition.wait conn.c_wake conn.c_mu;
          step ()
  in
  Mutex.lock conn.c_mu;
  step ()

(* ---------- the pool ---------- *)

(* Per-endpoint circuit breaker.  Closed passes traffic and counts
   consecutive failures; [trip_after] of them open the circuit for a
   cooldown that doubles with each consecutive trip; once the cooldown
   elapses exactly one caller is admitted as the half-open probe
   (everyone else keeps skipping), and that probe's outcome either
   closes the circuit (a revived daemon rejoins dispatch — counted in
   [p_reopened]) or re-opens it with a longer cooldown.  This replaces
   the old flat mark-down cooldown: a dead endpoint is skipped, not
   periodically retried into by every caller at once. *)
type breaker = Closed | Open of float  (* earliest half-open probe *) | Half_open

type ep_state = {
  e_ep : Endpoint.t;
  e_mu : Mutex.t;
  mutable e_conn : conn option;
  mutable e_breaker : breaker;
  mutable e_fails : int;  (* consecutive failures while closed *)
  mutable e_trips : int;  (* consecutive opens — scales the cooldown *)
}

type t = {
  p_eps : ep_state array;
  p_rr : int Atomic.t;
  p_io_timeout_ms : int;
  p_max_inflight : int;
  p_retries : int;
  p_closed : bool Atomic.t;
  p_auth_secret : string option;
  p_tripped : int Atomic.t;  (* closed circuits that opened *)
  p_reopened : int Atomic.t;  (* half-open probes that closed the circuit *)
}

type breaker_stats = {
  bk_closed : int;
  bk_open : int;
  bk_half_open : int;
  bk_tripped : int;
  bk_reopened : int;
}

let trip_after = 2
let cooldown_base_s = 0.5
let cooldown_max_s = 8.0

let cooldown trips =
  Float.min cooldown_max_s
    (cooldown_base_s *. (2.0 ** float_of_int (min 8 (max 0 (trips - 1)))))

let create ?(io_timeout_ms = 30_000) ?(max_inflight = 8) ?(retries = 2)
    ?auth_secret eps =
  if eps = [] then invalid_arg "Client.create: no endpoints";
  {
    p_eps =
      Array.of_list
        (List.map
           (fun ep ->
             {
               e_ep = ep;
               e_mu = Mutex.create ();
               e_conn = None;
               e_breaker = Closed;
               e_fails = 0;
               e_trips = 0;
             })
           eps);
    p_rr = Atomic.make 0;
    p_io_timeout_ms = max 0 io_timeout_ms;
    p_max_inflight = max 1 max_inflight;
    p_retries = max 0 retries;
    p_closed = Atomic.make false;
    p_auth_secret = auth_secret;
    p_tripped = Atomic.make 0;
    p_reopened = Atomic.make 0;
  }

let breaker_stats t =
  let closed = ref 0 and opened = ref 0 and half = ref 0 in
  Array.iter
    (fun st ->
      Mutex.lock st.e_mu;
      (match st.e_breaker with
      | Closed -> incr closed
      | Open _ -> incr opened
      | Half_open -> incr half);
      Mutex.unlock st.e_mu)
    t.p_eps;
  {
    bk_closed = !closed;
    bk_open = !opened;
    bk_half_open = !half;
    bk_tripped = Atomic.get t.p_tripped;
    bk_reopened = Atomic.get t.p_reopened;
  }

let idempotent = function
  | Serve.Shutdown -> false
  (* the session verbs mutate daemon state (watch/forget change the
     watched set, reanalyze advances it): never silently retry
     them — a duplicate would double-commit an edit *)
  | Serve.Watch _ | Serve.Reanalyze _ | Serve.Forget _ -> false
  (* Sweep is side-effect-free on the daemon too; it streams, so only
     [stream] carries it, and a stream is retried only before its
     first frame *)
  | Serve.Ping | Serve.Stats | Serve.Health | Serve.Analyze _ | Serve.Eval _
  | Serve.Sweep _ ->
      true

let drop_conn st =
  Mutex.lock st.e_mu;
  let c = st.e_conn in
  st.e_conn <- None;
  Mutex.unlock st.e_mu;
  match c with None -> () | Some c -> kill c "connection replaced"

let breaker_fail t st =
  Mutex.lock st.e_mu;
  (match st.e_breaker with
  | Half_open ->
      (* the probe failed: back to open, longer cooldown *)
      st.e_trips <- st.e_trips + 1;
      st.e_breaker <- Open (Unix.gettimeofday () +. cooldown st.e_trips)
  | Closed ->
      st.e_fails <- st.e_fails + 1;
      if st.e_fails >= trip_after then begin
        st.e_trips <- st.e_trips + 1;
        st.e_breaker <- Open (Unix.gettimeofday () +. cooldown st.e_trips);
        Atomic.incr t.p_tripped
      end
  | Open _ -> ());
  Mutex.unlock st.e_mu;
  drop_conn st

let breaker_ok t st =
  Mutex.lock st.e_mu;
  (match st.e_breaker with
  | Closed -> st.e_fails <- 0
  | Half_open | Open _ ->
      (* the half-open probe succeeded (or a last-resort try against an
         open circuit did): the daemon is back — e.g. just restarted by
         a supervisor — so it rejoins dispatch *)
      st.e_breaker <- Closed;
      st.e_fails <- 0;
      st.e_trips <- 0;
      Atomic.incr t.p_reopened);
  Mutex.unlock st.e_mu

(* round-robin, breaker- and room-aware: a due half-open probe first
   (it fires at most once per cooldown window, and skipping it while
   healthy endpoints exist would strand a revived endpoint open
   forever), then a closed-circuit endpoint with pipeline room, then
   any closed one, then the raw round-robin choice (when every
   circuit is open, trying beats failing).  A retry passes the
   endpoint that just failed it as [avoid] and goes elsewhere
   whenever there is an elsewhere: a dead endpoint's circuit can
   still read closed (a late answer from before its death resets it),
   and a busy live endpoint must not lose the retry to it. *)
let pick ?avoid t =
  let n = Array.length t.p_eps in
  let start = Atomic.fetch_and_add t.p_rr 1 in
  let at i = t.p_eps.((start + i) mod n) in
  let now = Unix.gettimeofday () in
  let state st =
    Mutex.lock st.e_mu;
    let b = st.e_breaker in
    Mutex.unlock st.e_mu;
    b
  in
  let closed st = state st = Closed in
  let probe_due st =
    match state st with Open until -> now >= until | Closed | Half_open -> false
  in
  let room st =
    match st.e_conn with
    | Some c -> c.c_dead = None && c.c_inflight < t.p_max_inflight
    | None -> true
  in
  let usable st =
    n = 1 || match avoid with Some a -> st != a | None -> true
  in
  let rec scan i pred = if i >= n then None else
    let st = at i in
    if usable st && pred st then Some st else scan (i + 1) pred
  in
  let claim_probe st =
    (* claim the single probe slot; a racing picker that saw the same
       expiry loses here and skips the endpoint *)
    Mutex.lock st.e_mu;
    let won =
      match st.e_breaker with
      | Open until when now >= until ->
          st.e_breaker <- Half_open;
          true
      | Closed | Open _ | Half_open -> false
    in
    Mutex.unlock st.e_mu;
    won
  in
  match scan 0 probe_due with
  | Some st when claim_probe st -> st
  | Some _ | None -> (
      match scan 0 (fun st -> closed st && room st) with
      | Some st -> st
      | None -> (
          match scan 0 closed with
          | Some st -> st
          | None -> Option.value (scan 0 (fun _ -> true)) ~default:(at 0)))

let get_conn t st =
  Mutex.lock st.e_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.e_mu)
    (fun () ->
      match st.e_conn with
      | Some c when c.c_dead = None -> c
      | _ ->
          let c =
            make_conn ~io_timeout_ms:t.p_io_timeout_ms
              ?auth_secret:t.p_auth_secret st.e_ep
          in
          st.e_conn <- Some c;
          c)

let stream ?deadline_ms ?(heartbeat_ms = 0) t req on_frame =
  let deadline_ms = Option.value deadline_ms ~default:t.p_io_timeout_ms in
  let attempts = if idempotent req then 1 + t.p_retries else 1 in
  let rec go ?avoid attempt last_err =
    if attempt >= attempts then Error last_err
    else
      let st = pick ?avoid t in
      let named m = Endpoint.to_string st.e_ep ^ ": " ^ m in
      let failed m =
        breaker_fail t st;
        named m
      in
      let retry m = go ~avoid:st (attempt + 1) (failed m) in
      match get_conn t st with
      | exception Unix.Unix_error (e, _, _) ->
          retry ("connect: " ^ Unix.error_message e)
      | exception Failure m ->
          (* unresolvable host: no point hammering it *)
          retry m
      | conn -> (
          match
            exchange conn ~max_inflight:t.p_max_inflight ~deadline_ms
              ~heartbeat_ms req on_frame
          with
          | Ok (), _ ->
              breaker_ok t st;
              Ok ()
          (* nothing reached the daemon, so nothing is known about it *)
          | Error (`Unsent m), _ -> Error (named m)
          (* the requests on the wire are charged for the death *)
          | Error (`Unwritten m), _ -> go ~avoid:st (attempt + 1) (named m)
          | Error (`Lost m), 0 -> retry m
          (* frames already delivered: a retry could repeat them *)
          | Error (`Lost m), _ -> Error (failed m))
  in
  if Atomic.get t.p_closed then Error "client pool is closed"
  else go 0 "no endpoints"

let request ?deadline_ms t req =
  match req with
  | Serve.Sweep _ ->
      Error "sweep responses stream (one frame per binding); use stream"
  | Serve.Reanalyze _ ->
      Error
        "reanalyze responses stream (one frame per invalidated function); \
         use stream"
  | _ ->
      let first = ref None in
      Result.map
        (fun () -> Option.get !first)
        (stream ?deadline_ms t req (fun resp ->
             first := Some resp;
             `Done))

let sweep ?jobs ?deadline_ms t reqs =
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results = Array.make n (Error "sweep: never ran") in
    let jobs =
      min n
        (match jobs with
        | Some j -> max 1 j
        | None -> max 1 (Array.length t.p_eps * t.p_max_inflight))
    in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
            (try request ?deadline_ms t arr.(i)
             with e -> Error (Printexc.to_string e)));
          go ()
        end
      in
      go ()
    in
    let threads = List.init jobs (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    Array.to_list results
  end

let close t =
  if not (Atomic.exchange t.p_closed true) then
    Array.iter
      (fun st ->
        Mutex.lock st.e_mu;
        let c = st.e_conn in
        st.e_conn <- None;
        Mutex.unlock st.e_mu;
        match c with
        | None -> ()
        | Some c -> (
            kill c "client closed";
            match c.c_reader with
            | Some th -> ( try Thread.join th with _ -> ())
            | None -> ()))
      t.p_eps

let with_pool ?io_timeout_ms ?max_inflight ?retries ?auth_secret eps f =
  let t = create ?io_timeout_ms ?max_inflight ?retries ?auth_secret eps in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let with_endpoint ?io_timeout_ms ep f = with_pool ?io_timeout_ms [ ep ] f

(* a bounded connect, one exchange, close: the readiness and health
   probes' shape *)
let once ?auth_secret ~timeout_ms ep req =
  match Endpoint.connect ~io_timeout_ms:timeout_ms ep with
  | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
      Error "unreachable"
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Serve.roundtrip ?auth_secret fd req)

let wait_ready ?(timeout_s = 5.0) ?auth_secret ep =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    (* each probe is individually bounded so a half-up daemon cannot
       park one past the caller's overall deadline *)
    match once ?auth_secret ~timeout_ms:1000 ep Serve.Ping with
    | Ok { Serve.rs_status = "ok"; _ } -> true
    | _ when Unix.gettimeofday () >= deadline -> false
    | _ ->
        Unix.sleepf 0.02;
        go ()
  in
  go ()

type health = Ready | Starting | Draining | Unreachable

let probe ?auth_secret ~timeout_ms ep =
  match once ?auth_secret ~timeout_ms ep Serve.Health with
  | Ok resp -> (
      match Serve.field resp "state" with
      | Some "starting" -> Starting
      | Some "draining" -> Draining
      (* a pre-health daemon answers with an error frame, no state:
         alive, just old *)
      | Some _ | None -> Ready)
  | Error _ -> Unreachable
