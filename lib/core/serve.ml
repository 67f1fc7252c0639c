(* The analysis daemon.  Layering, bottom up:

   - frame I/O: length-prefixed, versioned, checksummed frames over a
     file descriptor, with fault-injection sites on the write path;
   - payload codec: a tiny line-oriented grammar shared by requests
     and responses;
   - the server: a single event loop (poll(2) via {!Poller}) in the
     calling thread driving non-blocking per-connection state
     machines, with analyze/eval work handed to a fixed pool of
     [cfg_workers] threads.  An admitted connection costs a
     descriptor and a small record, not a thread, so thousands of
     idle connections are cheap; bounded admission with load
     shedding and a graceful drain on stop are unchanged.

   Robustness stance: everything a client can send is untrusted.
   Frame errors are classified; whatever still has a trustworthy
   frame boundary is answered with an error frame and the connection
   continues, anything past a lost boundary closes the connection —
   and in neither case does the event loop stop accepting. *)

type config = {
  cfg_endpoints : Endpoint.t list;
  cfg_max_inflight : int;
  cfg_max_pipeline : int;
  cfg_max_frame_bytes : int;
  cfg_idle_timeout_ms : int;
  cfg_drain_ms : int;
  cfg_workers : int;
  cfg_level : Mira_codegen.Codegen.level;
  cfg_limits : Limits.t;
  cfg_cache : Batch.cache option;
  cfg_incremental : bool;
  cfg_faults : Faults.t option;
  cfg_auth_secret : string option;
}

let default_config_endpoints ~endpoints =
  {
    cfg_endpoints = endpoints;
    cfg_max_inflight = 8;
    cfg_max_pipeline = 8;
    cfg_max_frame_bytes = 4 * 1024 * 1024;
    cfg_idle_timeout_ms = 30_000;
    cfg_drain_ms = 2_000;
    cfg_workers = 8;
    cfg_level = Mira_codegen.Codegen.O1;
    cfg_limits = Limits.default;
    cfg_cache = None;
    cfg_incremental = true;
    cfg_faults = None;
    cfg_auth_secret = None;
  }

let default_config ~socket =
  default_config_endpoints ~endpoints:[ Endpoint.Unix_sock socket ]

(* ---------- frame layer ---------- *)

let magic = "MIRS1\n"
let digest_len = 16
let header_len = String.length magic + 4

type frame_error =
  | Closed
  | Truncated
  | Bad_magic
  | Oversized of int
  | Bad_checksum
  | Timed_out

let frame_error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Bad_magic -> "bad frame magic"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n
  | Bad_checksum -> "frame checksum mismatch"
  | Timed_out -> "socket timeout"

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.unsafe_to_string b

let of_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* [read_exact fd n]: all [n] bytes, or how the stream ended.  EINTR
   restarts; EAGAIN/EWOULDBLOCK is the SO_RCVTIMEO idle timeout; a
   reset peer reads as EOF. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> `Eof off
      | r -> go (off + r)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> `Timeout
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Eof off
  in
  go 0

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | r -> go (off + r)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let frame payload =
  magic ^ be32 (String.length payload) ^ Digest.string payload ^ payload

let write_frame ?faults fd payload =
  let data = frame payload in
  let subject = Digest.to_hex (Digest.string payload) in
  let fires p site =
    match faults with
    | Some f -> Faults.fires f ~p:(p f) ~site ~subject
    | None -> false
  in
  if fires (fun f -> f.Faults.kill_p) "net_kill" then begin
    (* the process dies between frames: nothing of this frame is ever
       written, the socket is just severed — what a SIGKILLed daemon
       looks like from the other end *)
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    raise (Faults.Injected "net_kill")
  end
  else if fires (fun f -> f.Faults.disconnect_p) "net_disconnect" then begin
    (* the peer vanishes mid-frame: half a frame, then a hard close *)
    write_all fd (String.sub data 0 (String.length data / 2));
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    raise (Faults.Injected "net_disconnect")
  end
  else if fires (fun f -> f.Faults.net_write_p) "net_write" then begin
    (* a dropped/short write: the frame just stops *)
    write_all fd (String.sub data 0 (String.length data / 2));
    raise (Faults.Injected "net_write")
  end
  else if
    (match faults with Some f -> f.Faults.slow_ms > 0 | None -> false)
    && fires (fun f -> f.Faults.slow_p) "net_slow"
  then begin
    (* a slow peer: the header arrives, the payload dribbles in later *)
    write_all fd (String.sub data 0 header_len);
    (match faults with
    | Some f -> Unix.sleepf (float_of_int f.Faults.slow_ms /. 1000.0)
    | None -> ());
    write_all fd
      (String.sub data header_len (String.length data - header_len))
  end
  else write_all fd data

let read_frame ?(max_bytes = 4 * 1024 * 1024) fd =
  match read_exact fd header_len with
  | `Timeout -> Error Timed_out
  | `Eof 0 -> Error Closed
  | `Eof _ -> Error Truncated
  | `Ok header ->
      if String.sub header 0 (String.length magic) <> magic then
        Error Bad_magic
      else
        let len = of_be32 header (String.length magic) in
        if len > max_bytes then Error (Oversized len)
        else (
          match read_exact fd (digest_len + len) with
          | `Timeout -> Error Timed_out
          | `Eof _ -> Error Truncated
          | `Ok rest ->
              let digest = String.sub rest 0 digest_len in
              let payload =
                String.sub rest digest_len (String.length rest - digest_len)
              in
              if Digest.string payload <> digest then Error Bad_checksum
              else Ok payload)

(* ---------- payload codec ---------- *)

let proto = "mira/1"

(* field values travel on one line; whatever they came from, newlines
   must not let a value forge extra fields *)
let sanitize v =
  String.map (function '\n' | '\r' -> ' ' | c -> c) v

let encode_payload ~head ~fields ~body =
  let buf = Buffer.create (128 + String.length body) in
  Buffer.add_string buf proto;
  Buffer.add_char buf ' ';
  Buffer.add_string buf head;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf (sanitize v))
    fields;
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf body;
  Buffer.contents buf

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let parse_payload s =
  let header, body =
    match find_sub s "\n\n" with
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
    | None -> (s, "")
  in
  match String.split_on_char '\n' header with
  | [] -> Error "empty payload"
  | head :: field_lines -> (
      match String.index_opt head ' ' with
      | None -> Error "malformed head line"
      | Some sp ->
          let version = String.sub head 0 sp in
          if version <> proto then
            Error (Printf.sprintf "unsupported protocol version %S" version)
          else
            let verb =
              String.sub head (sp + 1) (String.length head - sp - 1)
            in
            if verb = "" then Error "missing verb"
            else
              let rec fields acc = function
                | [] -> Ok (List.rev acc)
                | "" :: _ -> Error "blank line inside header"
                | line :: rest -> (
                    match String.index_opt line '=' with
                    | None ->
                        Error
                          (Printf.sprintf "malformed field line %S" line)
                    | Some i ->
                        let k = String.sub line 0 i in
                        let v =
                          String.sub line (i + 1)
                            (String.length line - i - 1)
                        in
                        fields ((k, v) :: acc) rest)
              in
              Result.map (fun fs -> (verb, fs, body)) (fields [] field_lines))

(* ---------- requests ---------- *)

type budget_request = {
  rq_fuel : int option;
  rq_timeout_ms : int option;
  rq_depth : int option;
}

let no_budget = { rq_fuel = None; rq_timeout_ms = None; rq_depth = None }

type sweep_binding = {
  sb_index : int;
  sb_source : string;
  sb_function : string;
  sb_params : (string * int) list;
}

type request =
  | Ping
  | Stats
  | Health
  | Shutdown
  | Analyze of {
      an_name : string;
      an_source : string;
      an_budget : budget_request;
    }
  | Eval of {
      ev_name : string;
      ev_source : string;
      ev_function : string;
      ev_params : (string * int) list;
      ev_budget : budget_request;
    }
  | Sweep of {
      sw_sources : (string * string) list;
      sw_bindings : sweep_binding list;
      sw_budget : budget_request;
    }
  (* watch-mode session verbs (additive, PROTOCOL.md "watch mode"):
     an empty source body means "read [path] from the daemon's own
     filesystem" — the shared-filesystem deployment — while a
     non-empty body carries the text itself *)
  | Watch of { wt_path : string; wt_source : string }
  | Reanalyze of { rz_path : string; rz_source : string }
  | Forget of { fg_path : string }

let budget_fields b =
  let opt k = function
    | Some n -> [ (k, string_of_int n) ]
    | None -> []
  in
  opt "fuel" b.rq_fuel @ opt "timeout-ms" b.rq_timeout_ms
  @ opt "depth" b.rq_depth

(* ---------- sweep body codec ----------

   A sweep chunk carries every distinct source once (length-prefixed,
   so arbitrary program text needs no escaping) followed by one [bind]
   line per evaluation, each tagged with its caller-chosen index:

   {v source NAME LEN \n <LEN bytes> \n
      bind INDEX NAME FUNCTION k=v k=v... \n v}

   Names and function names are single tokens (no spaces/newlines);
   the index rides back on the per-binding response frame, which is
   what lets a coordinator track completion of a chunk it may later
   re-dispatch elsewhere. *)

let valid_token s =
  s <> ""
  && String.for_all (fun c -> c <> ' ' && c <> '\n' && c <> '\r') s

let encode_sweep_body ~sources ~bindings =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, text) ->
      if not (valid_token name) then
        invalid_arg
          (Printf.sprintf "sweep: source name %S is not a single token" name);
      Printf.bprintf buf "source %s %d\n%s\n" name (String.length text) text)
    sources;
  List.iter
    (fun b ->
      if b.sb_index < 0 then invalid_arg "sweep: negative binding index";
      if not (valid_token b.sb_function) then
        invalid_arg
          (Printf.sprintf "sweep: function name %S is not a single token"
             b.sb_function);
      Printf.bprintf buf "bind %d %s %s" b.sb_index b.sb_source b.sb_function;
      List.iter
        (fun (k, v) ->
          if not (valid_token k) || String.contains k '=' then
            invalid_arg
              (Printf.sprintf "sweep: parameter name %S is not a single token"
                 k);
          Printf.bprintf buf " %s=%d" k v)
        b.sb_params;
      Buffer.add_char buf '\n')
    bindings;
  Buffer.contents buf

let parse_sweep_body body =
  let ( let* ) = Result.bind in
  let len = String.length body in
  let line_end pos =
    match String.index_from_opt body pos '\n' with Some i -> i | None -> len
  in
  let parse_bind idx name fn params =
    let* idx =
      match int_of_string_opt idx with
      | Some i when i >= 0 -> Ok i
      | _ -> Error (Printf.sprintf "sweep bind: bad index %S" idx)
    in
    let* params =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          match String.index_opt p '=' with
          | None -> Error (Printf.sprintf "sweep bind: expected k=v, got %S" p)
          | Some i -> (
              let k = String.sub p 0 i in
              let v = String.sub p (i + 1) (String.length p - i - 1) in
              match int_of_string_opt v with
              | Some n -> Ok ((k, n) :: acc)
              | None ->
                  Error
                    (Printf.sprintf "sweep bind: param %s: %S is not an integer"
                       k v)))
        (Ok []) params
    in
    Ok
      {
        sb_index = idx;
        sb_source = name;
        sb_function = fn;
        sb_params = List.rev params;
      }
  in
  let rec go pos sources bindings =
    if pos >= len then Ok (List.rev sources, List.rev bindings)
    else
      let e = line_end pos in
      let line = String.sub body pos (e - pos) in
      match String.split_on_char ' ' line with
      | [ "source"; name; n ] -> (
          match int_of_string_opt n with
          | Some sz when sz >= 0 && e + 1 + sz < len ->
              let text = String.sub body (e + 1) sz in
              if body.[e + 1 + sz] <> '\n' then
                Error "sweep source: missing terminator after text"
              else go (e + 2 + sz) ((name, text) :: sources) bindings
          | _ -> Error (Printf.sprintf "sweep source: bad length %S" n))
      | "bind" :: idx :: name :: fn :: params ->
          let* b = parse_bind idx name fn params in
          go (e + 1) sources (b :: bindings)
      | _ -> Error (Printf.sprintf "sweep: malformed line %S" line)
  in
  go 0 [] []

let encode_request ?id req =
  (* the id tag rides along as an ordinary field: untagged requests
     stay byte-identical to the pre-pipelining wire format *)
  let tag fields =
    match id with None -> fields | Some i -> ("id", i) :: fields
  in
  match req with
  | Ping -> encode_payload ~head:"ping" ~fields:(tag []) ~body:""
  | Stats -> encode_payload ~head:"stats" ~fields:(tag []) ~body:""
  | Health -> encode_payload ~head:"health" ~fields:(tag []) ~body:""
  | Shutdown -> encode_payload ~head:"shutdown" ~fields:(tag []) ~body:""
  | Analyze { an_name; an_source; an_budget } ->
      encode_payload ~head:"analyze"
        ~fields:(tag (("name", an_name) :: budget_fields an_budget))
        ~body:an_source
  | Eval { ev_name; ev_source; ev_function; ev_params; ev_budget } ->
      encode_payload ~head:"eval"
        ~fields:
          (tag
             ([ ("name", ev_name); ("function", ev_function) ]
             @ List.map
                 (fun (k, v) -> ("param", Printf.sprintf "%s=%d" k v))
                 ev_params
             @ budget_fields ev_budget))
        ~body:ev_source
  | Sweep { sw_sources; sw_bindings; sw_budget } ->
      encode_payload ~head:"sweep"
        ~fields:(tag (budget_fields sw_budget))
        ~body:(encode_sweep_body ~sources:sw_sources ~bindings:sw_bindings)
  | Watch { wt_path; wt_source } ->
      encode_payload ~head:"watch"
        ~fields:(tag [ ("path", wt_path) ])
        ~body:wt_source
  | Reanalyze { rz_path; rz_source } ->
      encode_payload ~head:"reanalyze"
        ~fields:(tag [ ("path", rz_path) ])
        ~body:rz_source
  | Forget { fg_path } ->
      encode_payload ~head:"forget" ~fields:(tag [ ("path", fg_path) ]) ~body:""

(* the request id, when the payload parses at all — extracted
   independently of the verb so even a bad-request error frame can be
   re-associated by a pipelining client *)
let payload_id payload =
  match parse_payload payload with
  | Ok (_, fields, _) -> List.assoc_opt "id" fields
  | Error _ -> None

let parse_request payload =
  let ( let* ) = Result.bind in
  let* verb, fields, body = parse_payload payload in
  let field k = List.assoc_opt k fields in
  let int_field k =
    match field k with
    | None -> Ok None
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok (Some n)
        | _ -> Error (Printf.sprintf "field %s: expected an integer, got %S" k v))
  in
  let budget () =
    let* fuel = int_field "fuel" in
    let* timeout_ms = int_field "timeout-ms" in
    let* depth = int_field "depth" in
    Ok { rq_fuel = fuel; rq_timeout_ms = timeout_ms; rq_depth = depth }
  in
  let name () = Option.value (field "name") ~default:"request.mc" in
  match verb with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "health" -> Ok Health
  | "shutdown" -> Ok Shutdown
  | "analyze" ->
      let* b = budget () in
      Ok (Analyze { an_name = name (); an_source = body; an_budget = b })
  | "eval" -> (
      let* b = budget () in
      match field "function" with
      | None -> Error "eval needs a function= field"
      | Some fn ->
          let* params =
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                if k <> "param" then Ok acc
                else
                  match String.index_opt v '=' with
                  | None ->
                      Error
                        (Printf.sprintf "param %S: expected name=value" v)
                  | Some i -> (
                      let pk = String.sub v 0 i in
                      let pv =
                        String.sub v (i + 1) (String.length v - i - 1)
                      in
                      match int_of_string_opt pv with
                      | Some n -> Ok ((pk, n) :: acc)
                      | None ->
                          Error
                            (Printf.sprintf "param %s: %S is not an integer"
                               pk pv)))
              (Ok []) fields
          in
          Ok
            (Eval
               {
                 ev_name = name ();
                 ev_source = body;
                 ev_function = fn;
                 ev_params = List.rev params;
                 ev_budget = b;
               }))
  | "sweep" ->
      let* b = budget () in
      let* sources, bindings = parse_sweep_body body in
      let* () =
        List.fold_left
          (fun acc sb ->
            let* () = acc in
            if List.mem_assoc sb.sb_source sources then Ok ()
            else
              Error
                (Printf.sprintf "sweep binding %d: unknown source %S"
                   sb.sb_index sb.sb_source))
          (Ok ()) bindings
      in
      Ok (Sweep { sw_sources = sources; sw_bindings = bindings; sw_budget = b })
  | ("watch" | "reanalyze" | "forget") as verb -> (
      match field "path" with
      | None -> Error (Printf.sprintf "%s needs a path= field" verb)
      | Some p ->
          Ok
            (match verb with
            | "watch" -> Watch { wt_path = p; wt_source = body }
            | "reanalyze" -> Reanalyze { rz_path = p; rz_source = body }
            | _ -> Forget { fg_path = p }))
  | v -> Error (Printf.sprintf "unknown request verb %S" v)

(* ---------- responses ---------- *)

type response = {
  rs_status : string;
  rs_fields : (string * string) list;
  rs_body : string;
}

let encode_response r =
  encode_payload ~head:r.rs_status ~fields:r.rs_fields ~body:r.rs_body

let parse_response payload =
  Result.map
    (fun (status, fields, body) ->
      { rs_status = status; rs_fields = fields; rs_body = body })
    (parse_payload payload)

let field r k = List.assoc_opt k r.rs_fields

let ok ?(fields = []) ?(body = "") () =
  { rs_status = "ok"; rs_fields = fields; rs_body = body }

let error_response ~code ?(fields = []) message =
  {
    rs_status = "error";
    rs_fields = (("code", code) :: ("message", message) :: fields);
    rs_body = "";
  }

let overloaded_response =
  {
    rs_status = "overloaded";
    rs_fields = [ ("retry", "1") ];
    rs_body = "";
  }

let diag_code (d : Diag.t) =
  match d.d_kind with
  | Diag.User_error -> "analysis"
  | Diag.Budget_exhausted -> "budget"
  | Diag.Timeout -> "timeout"
  | Diag.Io_error -> "io"
  | Diag.Cache_corrupt -> "cache"
  | Diag.Injected_fault -> "injected"
  | Diag.Internal_error -> "internal"

let diag_response (d : Diag.t) =
  error_response ~code:(diag_code d)
    ~fields:
      [
        ("phase", Diag.phase_to_string d.d_phase);
        ("kind", Diag.kind_to_string d.d_kind);
      ]
    (Diag.to_string d)

(* ---------- server stats ---------- *)

type server_stats = {
  sv_uptime_ms : int;
  sv_served : int;
  sv_failed : int;
  sv_shed : int;
  sv_protocol_errors : int;
  sv_inflight : int;
  sv_inflight_hwm : int;
  sv_analyzed : int;
  sv_mem_hits : int;
  sv_disk_hits : int;
  sv_assembled : int;
  sv_fn_mem_hits : int;
  sv_fn_disk_hits : int;
  sv_fn_analyzed : int;
  sv_cache_corrupt : int;
  sv_io_retries : int;
  sv_io_failures : int;
  sv_compile_hits : int;
  sv_compile_misses : int;
  sv_compile_fallbacks : int;
}

let stats_fields s =
  [
    ("uptime-ms", string_of_int s.sv_uptime_ms);
    ("served", string_of_int s.sv_served);
    ("failed", string_of_int s.sv_failed);
    ("shed", string_of_int s.sv_shed);
    ("protocol-errors", string_of_int s.sv_protocol_errors);
    ("inflight", string_of_int s.sv_inflight);
    ("inflight-hwm", string_of_int s.sv_inflight_hwm);
    ("analyzed", string_of_int s.sv_analyzed);
    ("mem-hits", string_of_int s.sv_mem_hits);
    ("disk-hits", string_of_int s.sv_disk_hits);
    ("assembled", string_of_int s.sv_assembled);
    ("fn-mem-hits", string_of_int s.sv_fn_mem_hits);
    ("fn-disk-hits", string_of_int s.sv_fn_disk_hits);
    ("fn-analyzed", string_of_int s.sv_fn_analyzed);
    ("cache-corrupt", string_of_int s.sv_cache_corrupt);
    ("io-retries", string_of_int s.sv_io_retries);
    ("io-failures", string_of_int s.sv_io_failures);
  ]
(* the compiled-evaluator counters ride as response header fields, not
   body lines: the body's key list is pinned wire shape
   (docs/PROTOCOL.md, test_protocol) and pre-compile pollers must keep
   parsing it byte-for-byte *)

let compile_fields s =
  [
    ("compile-hits", string_of_int s.sv_compile_hits);
    ("compile-misses", string_of_int s.sv_compile_misses);
    ("compile-fallbacks", string_of_int s.sv_compile_fallbacks);
  ]

(* watch-mode session counters — same precedent as [compile_fields]:
   header fields on the stats response, never new body lines *)
let session_counter_fields (c : Session.counters) =
  [
    ("watch-files", string_of_int c.Session.ct_files);
    ("watch-reanalyses", string_of_int c.ct_reanalyses);
    ("watch-invalidated", string_of_int c.ct_invalidated);
    ("watch-local", string_of_int c.ct_local);
    ("watch-cross", string_of_int c.ct_cross);
    ("watch-recomputed", string_of_int c.ct_recomputed);
    ("watch-clean", string_of_int c.ct_clean);
  ]

(* ---------- the server ---------- *)

type t = {
  t_cfg : config;
  t_listen : (Unix.file_descr * Endpoint.t) list;
  t_stop_r : Unix.file_descr;
  t_stop_w : Unix.file_descr;
  t_stopping : bool Atomic.t;
  (* flipped once the event loop is live; [health] reports "starting"
     until then, so a supervisor can tell a booting daemon (bound but
     not yet serving, e.g. still scanning its cache) from a ready one *)
  t_ready : bool Atomic.t;
  t_start : float;
  t_inflight : int Atomic.t;
  t_hwm : int Atomic.t;
  t_served : int Atomic.t;
  t_failed : int Atomic.t;
  t_shed : int Atomic.t;
  t_proto_err : int Atomic.t;
  (* accumulated Batch.stats over served requests *)
  t_batch_mu : Mutex.t;
  mutable t_batch : Batch.stats option;
  (* compiled evaluators, shared across workers and requests: eval and
     sweep bindings with the same (model, function, parameter-name
     set) re-run one program instead of re-walking the model *)
  t_compile : Model_compile.cache;
  (* the watch-mode session: per-file fingerprint tables, models and
     the cross-file dependency index.  Mutating verbs are serialized
     by the event loop (one at a time, FIFO), so pipelined edits
     always observe a consistent snapshot; Session's own mutex guards
     the remaining reader paths (stats). *)
  t_session : Session.t;
}

let add_batch_stats t (s : Batch.stats) =
  Mutex.lock t.t_batch_mu;
  (t.t_batch <-
    (match t.t_batch with
    | None -> Some s
    | Some a ->
        Some
          {
            a with
            Batch.st_analyzed = a.Batch.st_analyzed + s.Batch.st_analyzed;
            st_mem_hits = a.st_mem_hits + s.Batch.st_mem_hits;
            st_disk_hits = a.st_disk_hits + s.Batch.st_disk_hits;
            st_assembled = a.st_assembled + s.Batch.st_assembled;
            st_fn_mem_hits = a.st_fn_mem_hits + s.Batch.st_fn_mem_hits;
            st_fn_disk_hits = a.st_fn_disk_hits + s.Batch.st_fn_disk_hits;
            st_fn_analyzed = a.st_fn_analyzed + s.Batch.st_fn_analyzed;
            st_cache_corrupt = a.st_cache_corrupt + s.Batch.st_cache_corrupt;
            st_io_retries = a.st_io_retries + s.Batch.st_io_retries;
            st_io_failures = a.st_io_failures + s.Batch.st_io_failures;
          }));
  Mutex.unlock t.t_batch_mu

let stats t =
  let b =
    Mutex.lock t.t_batch_mu;
    let b = t.t_batch in
    Mutex.unlock t.t_batch_mu;
    b
  in
  let bf f = match b with None -> 0 | Some s -> f s in
  let cs = Model_compile.stats t.t_compile in
  {
    sv_uptime_ms =
      int_of_float ((Unix.gettimeofday () -. t.t_start) *. 1000.0);
    sv_served = Atomic.get t.t_served;
    sv_failed = Atomic.get t.t_failed;
    sv_shed = Atomic.get t.t_shed;
    sv_protocol_errors = Atomic.get t.t_proto_err;
    sv_inflight = Atomic.get t.t_inflight;
    sv_inflight_hwm = Atomic.get t.t_hwm;
    sv_analyzed = bf (fun s -> s.Batch.st_analyzed);
    sv_mem_hits = bf (fun s -> s.Batch.st_mem_hits);
    sv_disk_hits = bf (fun s -> s.Batch.st_disk_hits);
    sv_assembled = bf (fun s -> s.Batch.st_assembled);
    sv_fn_mem_hits = bf (fun s -> s.Batch.st_fn_mem_hits);
    sv_fn_disk_hits = bf (fun s -> s.Batch.st_fn_disk_hits);
    sv_fn_analyzed = bf (fun s -> s.Batch.st_fn_analyzed);
    sv_cache_corrupt = bf (fun s -> s.Batch.st_cache_corrupt);
    sv_io_retries = bf (fun s -> s.Batch.st_io_retries);
    sv_io_failures = bf (fun s -> s.Batch.st_io_failures);
    sv_compile_hits = cs.Model_compile.hits;
    sv_compile_misses = cs.Model_compile.misses;
    sv_compile_fallbacks = cs.Model_compile.fallbacks;
  }

let create cfg =
  (* a client that disconnects mid-response must surface as EPIPE on
     that connection, never as a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if cfg.cfg_endpoints = [] then failwith "serve: no endpoints configured";
  (* bind every endpoint before serving any, unwinding on failure so a
     half-configured daemon never runs *)
  let listen =
    List.fold_left
      (fun acc ep ->
        match Endpoint.listen ep with
        | bound -> bound :: acc
        | exception e ->
            List.iter
              (fun (fd, _) ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              acc;
            raise e)
      [] cfg.cfg_endpoints
    |> List.rev
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_w;
  {
    t_cfg = cfg;
    t_listen = listen;
    t_stop_r = stop_r;
    t_stop_w = stop_w;
    t_stopping = Atomic.make false;
    t_ready = Atomic.make false;
    t_start = Unix.gettimeofday ();
    t_inflight = Atomic.make 0;
    t_hwm = Atomic.make 0;
    t_served = Atomic.make 0;
    t_failed = Atomic.make 0;
    t_shed = Atomic.make 0;
    t_proto_err = Atomic.make 0;
    t_batch_mu = Mutex.create ();
    t_batch = None;
    t_compile =
      (* share the analysis cache's directory so compiled programs
         survive restarts alongside the models they derive from *)
      Model_compile.create_cache ~capacity:256
        ?dir:(Option.bind cfg.cfg_cache Batch.cache_dir)
        ();
    t_session = Session.create ~level:cfg.cfg_level ~limits:cfg.cfg_limits ();
  }

let bound_endpoints t = List.map snd t.t_listen

let stop t =
  if not (Atomic.exchange t.t_stopping true) then
    (* wake the accept loop; if the pipe is gone the loop already
       exited, which is fine *)
    try ignore (Unix.write t.t_stop_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

(* ---------- request handling ---------- *)

(* the per-request budget: the server's limits clamped down by the
   request's own (a request can tighten its budget but never exceed
   the operator's).  Computed once at admission and carried with the
   job, so the worker that runs it needs no ambient per-thread state
   to find it. *)
let request_limits (cfg : config) = function
  | Analyze { an_budget = b; _ }
  | Eval { ev_budget = b; _ }
  | Sweep { sw_budget = b; _ } ->
      Limits.clamp cfg.cfg_limits ~fuel:b.rq_fuel ~timeout_ms:b.rq_timeout_ms
        ~depth:b.rq_depth
  | Ping | Stats | Health | Shutdown -> cfg.cfg_limits
  | Watch _ | Reanalyze _ | Forget _ -> cfg.cfg_limits

let analyze_source t ~name ~source ~limits =
  let cfg = t.t_cfg in
  let results, stats =
    Batch.run ~jobs:1 ?cache:cfg.cfg_cache ~incremental:cfg.cfg_incremental
      ~level:cfg.cfg_level ~limits ?faults:cfg.cfg_faults
      [ { Batch.src_name = name; src_text = source } ]
  in
  add_batch_stats t stats;
  match results with
  | [ Ok a ] -> Ok a
  | [ Error (_, d) ] -> Error d
  | _ ->
      Error
        (Diag.make Diag.Driver Diag.Internal_error
           "batch returned an unexpected result shape")

let float_field v = Printf.sprintf "%.12g" v

let handle_analyze t ~limits ~name ~source =
  match analyze_source t ~name ~source ~limits with
  | Error d -> diag_response d
  | Ok (a : Batch.analysis) ->
      ok
        ~fields:
          ([
             ("name", a.a_name);
             ( "functions",
               string_of_int (List.length a.a_model.Model_ir.functions) );
             ("cached", if a.a_cached then "1" else "0");
           ]
          @ List.map
              (fun (f, w) -> ("warning", f ^ ": " ^ w))
              a.a_warnings)
        ~body:a.a_python ()

(* Evaluate through the compiled-program cache: one compilation per
   (model, function, parameter-name set), so a sweep's bindings all
   re-run the same program.  Programs are keyed by the source's content
   key: the emitted Python renders deferred counts as [(0)], so two
   sources can share Python but not counts.  Models the partial
   evaluator rejects are answered by the interpreter; results agree to
   float tolerance and the response wire format is identical either
   way. *)
let eval_counts t (a : Batch.analysis) ~source ~fname ~params =
  let sweep = List.sort_uniq compare (List.map fst params) in
  match
    Model_compile.get t.t_compile
      ~digest:(Batch.key ~level:t.t_cfg.cfg_level source)
      ~model:a.a_model ~fname ~sweep ~fixed:[] ()
  with
  | Ok prog -> Model_compile.eval prog ~env:params
  | Error _ -> Model_eval.eval a.a_model ~fname ~env:params

let handle_eval t ~limits ~name ~source ~fname ~params =
  match analyze_source t ~name ~source ~limits with
  | Error d -> diag_response d
  | Ok (a : Batch.analysis) -> (
      (* model evaluation recurses over untrusted structure too; give
         it the same budget the analysis ran under *)
      match
        Limits.Budget.install (Limits.budget limits) (fun () ->
            eval_counts t a ~source ~fname ~params)
      with
      | counts ->
          let buf = Buffer.create 256 in
          List.iter
            (fun (mn, v) ->
              Buffer.add_string buf mn;
              Buffer.add_char buf '=';
              Buffer.add_string buf (float_field v);
              Buffer.add_char buf '\n')
            counts;
          ok
            ~fields:
              [
                ("name", a.a_name);
                ("function", fname);
                ("fpi", float_field (Model_eval.fpi counts));
                ("total", float_field (Model_eval.total counts));
                ("cached", if a.a_cached then "1" else "0");
              ]
            ~body:(Buffer.contents buf) ()
      | exception Model_eval.Missing_parameter (f, p) ->
          error_response ~code:"bad-request"
            (Printf.sprintf "function %s needs a value for parameter %s" f p)
      | exception Invalid_argument m ->
          error_response ~code:"bad-request" m
      | exception e -> diag_response (Diag.of_exn e))

(* returns the response plus whether the connection should go on *)
(* The readiness probe's view of the daemon.  Order matters: a
   draining daemon is "draining" even while saturated, and a booting
   one is "starting" whatever its counters say — a supervisor restarts
   a wedged "starting" child but leaves a "draining" one alone. *)
let health_state t =
  if Atomic.get t.t_stopping then "draining"
  else if not (Atomic.get t.t_ready) then "starting"
  else if Atomic.get t.t_inflight >= t.t_cfg.cfg_max_inflight then "overloaded"
  else "ready"

(* watch/reanalyze with an empty body read the file from the daemon's
   own filesystem (shared-filesystem deployment); failures are ordinary
   io-coded error responses, never exceptions *)
let read_path_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | (exception Sys_error m) -> Error m
  | (exception Unix.Unix_error (e, _, _)) ->
      Error (path ^ ": " ^ Unix.error_message e)

let handle_request t ~transport ~limits req =
  match req with
  | Ping -> (ok ~fields:[ ("pong", "1") ] (), `Continue)
  | Health ->
      (* purely additive: a new verb plus response fields, nothing in
         the existing grammar moves (docs/PROTOCOL.md, "health") *)
      ( ok
          ~fields:
            [
              ("state", health_state t);
              ("inflight", string_of_int (Atomic.get t.t_inflight));
              ("max-inflight", string_of_int t.t_cfg.cfg_max_inflight);
              ("workers", string_of_int t.t_cfg.cfg_workers);
              ("served", string_of_int (Atomic.get t.t_served));
              ("failed", string_of_int (Atomic.get t.t_failed));
            ]
          (),
        `Continue )
  | Stats ->
      let s = stats t in
      let body =
        String.concat ""
          (List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n") (stats_fields s))
      in
      (* protocol introspection: a pool can refuse a mismatched daemon
         with a clear diagnostic instead of a decode error *)
      ( ok
          ~fields:
            ([ ("proto", proto); ("transport", transport) ]
            @ compile_fields s
            @ session_counter_fields (Session.counters t.t_session))
          ~body (),
        `Continue )
  | Shutdown ->
      (ok ~fields:[ ("stopping", "1") ] (), `Stop)
  | Analyze { an_name; an_source; _ } ->
      (handle_analyze t ~limits ~name:an_name ~source:an_source, `Continue)
  | Eval { ev_name; ev_source; ev_function; ev_params; _ } ->
      ( handle_eval t ~limits ~name:ev_name ~source:ev_source
          ~fname:ev_function ~params:ev_params,
        `Continue )
  | Sweep _ ->
      (* sweeps stream multiple frames and are scheduled by the event
         loop itself (see [process_payload]); they cannot be answered
         by this single-response path *)
      ( error_response ~code:"bad-request"
          "sweep is only served by the event loop",
        `Continue )
  | Watch { wt_path; wt_source } -> (
      match
        if wt_source <> "" then Ok wt_source else read_path_file wt_path
      with
      | Error m -> (error_response ~code:"io" m, `Continue)
      | Ok text -> (
          match Session.watch t.t_session ~path:wt_path text with
          | Error d -> (diag_response d, `Continue)
          | Ok info ->
              ( ok
                  ~fields:
                    [
                      ("path", info.Session.in_path);
                      ( "functions",
                        string_of_int (List.length info.Session.in_functions)
                      );
                    ]
                  ~body:(Json.to_string (Json.of_model info.Session.in_model))
                  (),
                `Continue )))
  | Forget { fg_path } ->
      ( ok
          ~fields:
            [
              ("path", fg_path);
              ( "forgotten",
                if Session.forget t.t_session ~path:fg_path then "1" else "0"
              );
            ]
          (),
        `Continue )
  | Reanalyze _ ->
      (* reanalyze streams one frame per invalidated function plus a
         terminal frame; like sweep it is scheduled by the event loop *)
      ( error_response ~code:"bad-request"
          "reanalyze is only served by the event loop",
        `Continue )

(* ---------- connections: per-connection state machines ---------- *)

(* One queued write.  Responses are enqueued as chunks so the wire
   fault sites can be expressed as queue transformations: a delayed
   payload is a chunk with [wc_not_before] in the future, a truncated
   write is half a frame followed by nothing, a disconnect is half a
   frame with [wc_shutdown_after] set. *)
type wchunk = {
  wc_data : string;
  mutable wc_off : int;
  wc_not_before : float;  (** 0.0 = immediately *)
  wc_shutdown_after : bool;
}

type rstage = Header | Body of int  (* declared payload length *)

type conn = {
  cn_fd : Unix.file_descr;
  cn_transport : string;
  (* exact-length frame assembly: [cn_want] bytes finish the stage *)
  mutable cn_buf : Bytes.t;
  mutable cn_have : int;
  mutable cn_want : int;
  mutable cn_stage : rstage;
  cn_wq : wchunk Queue.t;
  mutable cn_pending : int;  (* dispatched worker jobs unanswered *)
  mutable cn_serial_busy : bool;  (* an untagged request is in a worker *)
  mutable cn_closing : bool;  (* stop reading; close once settled *)
  mutable cn_poisoned : bool;  (* write path is gone: drop writes *)
  mutable cn_dead : bool;  (* descriptor closed *)
  mutable cn_last_rx : float;  (* last byte received (idle reaping) *)
  mutable cn_wstall : float;  (* last write progress (stall reaping) *)
}

(* ---------- worker pool ---------- *)

(* Shared bookkeeping for one in-flight sweep: every binding of the
   chunk is its own pool job, and the completion that brings [sx_done]
   to [sx_total] emits the terminal [sweep-done] frame.  All mutation
   happens on the event-loop thread (process_completions), so plain
   mutable fields suffice. *)
type sweep_ctx = {
  sx_id : string;  (* the sweep's id= tag, echoed on every frame *)
  sx_total : int;
  mutable sx_done : int;
  mutable sx_ok : int;
  mutable sx_failed : int;
}

(* Shared bookkeeping for one in-flight reanalyze: planning and the
   final commit run on the event-loop thread; each invalidated
   function's recomputation is its own pool job.  Like [sweep_ctx],
   all mutation of the counters and accumulated results happens on
   the loop thread (process_completions). *)
type reanalyze_ctx = {
  rz_id : string;  (* the reanalyze's id= tag, echoed on every frame *)
  rz_plan : Session.plan;
  rz_total : int;
  mutable rz_done : int;
  mutable rz_ok : int;
  mutable rz_failed : int;
  mutable rz_results : (Session.inval * (Metric_gen.part, Diag.t) result) list;
      (* accumulated in reverse completion order; commit re-sorts
         nothing — Session.commit keys by (file, function) *)
}

type jobwork =
  | Wreq of request
  | Wsession of request
      (* watch/forget: single-response session verbs, serialized
         daemon-wide by the event loop's session queue *)
  | Wbinding of {
      wb_ctx : sweep_ctx;
      wb_index : int;
      wb_name : string;
      wb_source : string;
      wb_function : string;
      wb_params : (string * int) list;
    }
  | Wrecompute of {
      wr_ctx : reanalyze_ctx;
      wr_index : int;
      wr_inval : Session.inval;
      mutable wr_result : (Metric_gen.part, Diag.t) result option;
          (* written by the worker before the job lands on po_done,
             read by the loop after it is popped — the done-queue
             mutex orders the two *)
    }

(* A dispatched request.  The budget is clamped at admission and
   rides with the job: workers are interchangeable and hold no
   per-request state between jobs, so the pool — not the request
   rate — bounds every per-thread structure downstream. *)
type job = {
  jb_conn : conn;
  jb_id : string option;  (* None = untagged (strictly serial) *)
  jb_work : jobwork;
  jb_limits : Limits.t;
}

type pool = {
  po_mu : Mutex.t;
  po_cv : Condition.t;
  po_jobs : job Queue.t;
  mutable po_stop : bool;
  po_done_mu : Mutex.t;
  po_done : (job * response * [ `Continue | `Stop ]) Queue.t;
  mutable po_closed : bool;  (* wake pipe closed; stop writing to it *)
  po_wake_w : Unix.file_descr;
}

let count t resp =
  if resp.rs_status = "ok" then Atomic.incr t.t_served
  else Atomic.incr t.t_failed

let worker_loop t pool =
  let wake = Bytes.make 1 'c' in
  let rec next () =
    Mutex.lock pool.po_mu;
    while Queue.is_empty pool.po_jobs && not pool.po_stop do
      Condition.wait pool.po_cv pool.po_mu
    done;
    match Queue.take_opt pool.po_jobs with
    | None -> Mutex.unlock pool.po_mu (* stopping, queue drained *)
    | Some job ->
        Mutex.unlock pool.po_mu;
        (* one hostile request must never take the daemon down:
           whatever escapes becomes a structured error frame *)
        let resp, after =
          match job.jb_work with
          | Wreq req | Wsession req -> (
              try
                handle_request t ~transport:job.jb_conn.cn_transport
                  ~limits:job.jb_limits req
              with e -> (diag_response (Diag.of_exn e), `Continue))
          | Wrecompute w ->
              let inv = w.wr_inval in
              let result =
                try Session.recompute t.t_session w.wr_ctx.rz_plan inv
                with e -> Error (Diag.of_exn e)
              in
              w.wr_result <- Some result;
              (* one streamed frame per invalidated function: the
                 routing fields name the function and why it was
                 invalidated; the body carries its recomputed part
                 summary (the final python needs the assembled model
                 and rides on the terminal frame) *)
              let tag =
                [
                  ("binding", string_of_int w.wr_index);
                  ("file", inv.Session.iv_file);
                  ("function", inv.Session.iv_func);
                  ("reason", Session.reason_to_string inv.Session.iv_reason);
                ]
              in
              let resp =
                match result with
                | Ok part ->
                    ok ~fields:tag
                      ~body:
                        (Json.to_string
                           (Json.Obj
                              [
                                ("file", Json.Str inv.Session.iv_file);
                                ("function", Json.Str inv.Session.iv_func);
                                ( "reason",
                                  Json.Str
                                    (Session.reason_to_string
                                       inv.Session.iv_reason) );
                                ( "source_params",
                                  Json.Arr
                                    (List.map
                                       (fun s -> Json.Str s)
                                       part.Metric_gen.fp_source_params) );
                                ("arity", Json.Int part.Metric_gen.fp_arity);
                                ( "class",
                                  match part.Metric_gen.fp_class with
                                  | None -> Json.Null
                                  | Some c -> Json.Str c );
                                ( "warnings",
                                  Json.Arr
                                    (List.map
                                       (fun s -> Json.Str s)
                                       part.Metric_gen.fp_warnings) );
                              ]))
                      ()
                | Error d ->
                    let base = diag_response d in
                    { base with rs_fields = tag @ base.rs_fields }
              in
              (resp, `Continue)
          | Wbinding b ->
              let resp =
                try
                  handle_eval t ~limits:job.jb_limits ~name:b.wb_name
                    ~source:b.wb_source ~fname:b.wb_function
                    ~params:b.wb_params
                with e -> diag_response (Diag.of_exn e)
              in
              (* the binding index is how the coordinator knows which
                 evaluation this frame answers *)
              ( {
                  resp with
                  rs_fields =
                    ("binding", string_of_int b.wb_index) :: resp.rs_fields;
                },
                `Continue )
        in
        count t resp;
        Mutex.lock pool.po_done_mu;
        Queue.add (job, resp, after) pool.po_done;
        (* wake the event loop; a full pipe already has wake bytes in
           it, so a failed write is never a lost wakeup *)
        if not pool.po_closed then (
          try ignore (Unix.write pool.po_wake_w wake 0 1)
          with Unix.Unix_error _ -> ());
        Mutex.unlock pool.po_done_mu;
        next ()
  in
  next ()

(* ---------- load shedding ---------- *)

let shed t fd =
  Atomic.incr t.t_shed;
  let payload = encode_response overloaded_response in
  let payload =
    match t.t_cfg.cfg_auth_secret with
    | Some secret -> Auth.seal ~secret payload
    | None -> payload
  in
  (* the frame is far smaller than a fresh socket buffer, so this
     cannot block even on a client that never reads *)
  (try write_frame fd payload
   with Unix.Unix_error _ | Faults.Injected _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec bump_hwm hwm v =
  let cur = Atomic.get hwm in
  if v > cur && not (Atomic.compare_and_set hwm cur v) then bump_hwm hwm v

(* ---------- the event loop ---------- *)

let serve t =
  let cfg = t.t_cfg in
  let max_pipe = max 1 cfg.cfg_max_pipeline in
  let idle_s =
    if cfg.cfg_idle_timeout_ms > 0 then
      Some (float_of_int cfg.cfg_idle_timeout_ms /. 1000.0)
    else None
  in
  List.iter (fun (fd, _) -> Unix.set_nonblock fd) t.t_listen;
  (try Unix.set_nonblock t.t_stop_r with Unix.Unix_error _ -> ());
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let pool =
    {
      po_mu = Mutex.create ();
      po_cv = Condition.create ();
      po_jobs = Queue.create ();
      po_stop = false;
      po_done_mu = Mutex.create ();
      po_done = Queue.create ();
      po_closed = false;
      po_wake_w = wake_w;
    }
  in
  for _ = 1 to max 1 cfg.cfg_workers do
    ignore (Thread.create (worker_loop t) pool)
  done;
  Atomic.set t.t_ready true;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let live () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  let close_conn conn =
    if not conn.cn_dead then begin
      conn.cn_dead <- true;
      Hashtbl.remove conns conn.cn_fd;
      (try Unix.close conn.cn_fd with Unix.Unix_error _ -> ());
      Atomic.decr t.t_inflight
    end
  in
  let maybe_close conn =
    if
      (not conn.cn_dead) && conn.cn_closing && conn.cn_pending = 0
      && Queue.is_empty conn.cn_wq
    then close_conn conn
  in
  let rec pump_writes conn =
    if not conn.cn_dead then
      match Queue.peek_opt conn.cn_wq with
      | None -> maybe_close conn
      | Some c ->
          if c.wc_not_before > Unix.gettimeofday () then ()
          else begin
            match
              Unix.write_substring conn.cn_fd c.wc_data c.wc_off
                (String.length c.wc_data - c.wc_off)
            with
            | n ->
                conn.cn_wstall <- Unix.gettimeofday ();
                c.wc_off <- c.wc_off + n;
                if c.wc_off = String.length c.wc_data then begin
                  ignore (Queue.pop conn.cn_wq);
                  if c.wc_shutdown_after then begin
                    (try Unix.shutdown conn.cn_fd Unix.SHUTDOWN_ALL
                     with Unix.Unix_error _ -> ());
                    Queue.clear conn.cn_wq
                  end;
                  pump_writes conn
                end
                (* partial write: the socket buffer is full; poll for
                   writability *)
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error (EINTR, _, _) -> pump_writes conn
            | exception Unix.Unix_error (_, _, _) ->
                (* the peer is gone (EPIPE/ECONNRESET/...): a vanished
                   client is its own problem *)
                Queue.clear conn.cn_wq;
                conn.cn_poisoned <- true;
                conn.cn_closing <- true;
                maybe_close conn
          end
  in
  let enqueue_payload conn payload =
    if (not conn.cn_dead) && not conn.cn_poisoned then begin
      (* a secret-bearing daemon seals everything it sends, so clients
         can authenticate responses symmetrically; without a secret the
         bytes are identical to every earlier release *)
      let payload =
        match cfg.cfg_auth_secret with
        | Some secret -> Auth.seal ~secret payload
        | None -> payload
      in
      let data = frame payload in
      let chunk ?(not_before = 0.0) ?(shutdown_after = false) s =
        Queue.add
          {
            wc_data = s;
            wc_off = 0;
            wc_not_before = not_before;
            wc_shutdown_after = shutdown_after;
          }
          conn.cn_wq
      in
      let faults = cfg.cfg_faults in
      (* same sites, same subjects, same order as the blocking
         write_frame: fault schedules are identical across server
         implementations *)
      let subject = Digest.to_hex (Digest.string payload) in
      let fires p site =
        match faults with
        | Some f -> Faults.fires f ~p:(p f) ~site ~subject
        | None -> false
      in
      if Queue.is_empty conn.cn_wq then
        conn.cn_wstall <- Unix.gettimeofday ();
      if fires (fun f -> f.Faults.kill_p) "net_kill" then begin
        (* abrupt death between frames: this frame — and anything still
           queued behind the kernel's back — never reaches the peer,
           exactly as a SIGKILLed daemon would behave.  Same site,
           subject and ordering as the blocking write_frame. *)
        Queue.clear conn.cn_wq;
        (try Unix.shutdown conn.cn_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        conn.cn_poisoned <- true;
        conn.cn_closing <- true
      end
      else if fires (fun f -> f.Faults.disconnect_p) "net_disconnect" then begin
        (* the peer vanishes mid-frame: half a frame, then a hard
           close *)
        chunk ~shutdown_after:true
          (String.sub data 0 (String.length data / 2));
        conn.cn_poisoned <- true;
        conn.cn_closing <- true
      end
      else if fires (fun f -> f.Faults.net_write_p) "net_write" then begin
        (* a dropped/short write: the frame just stops *)
        chunk (String.sub data 0 (String.length data / 2));
        conn.cn_poisoned <- true;
        conn.cn_closing <- true
      end
      else if
        (match faults with Some f -> f.Faults.slow_ms > 0 | None -> false)
        && fires (fun f -> f.Faults.slow_p) "net_slow"
      then begin
        (* a slow peer: the header arrives, the payload dribbles in
           later — without parking a thread for the interval *)
        let slow_ms =
          match faults with Some f -> f.Faults.slow_ms | None -> 0
        in
        chunk (String.sub data 0 header_len);
        chunk
          ~not_before:(Unix.gettimeofday () +. (float_of_int slow_ms /. 1000.0))
          (String.sub data header_len (String.length data - header_len))
      end
      else chunk data;
      pump_writes conn
    end
  in
  let with_id id resp =
    { resp with rs_fields = ("id", id) :: resp.rs_fields }
  in
  let respond conn id resp =
    let resp = match id with Some i -> with_id i resp | None -> resp in
    enqueue_payload conn (encode_response resp)
  in
  let handle_inline conn req =
    try
      handle_request t ~transport:conn.cn_transport ~limits:cfg.cfg_limits req
    with e -> (diag_response (Diag.of_exn e), `Continue)
  in
  let enqueue_job job =
    Mutex.lock pool.po_mu;
    Queue.add job pool.po_jobs;
    Condition.signal pool.po_cv;
    Mutex.unlock pool.po_mu
  in
  let submit conn id req =
    conn.cn_pending <- conn.cn_pending + 1;
    (match id with None -> conn.cn_serial_busy <- true | Some _ -> ());
    enqueue_job
      { jb_conn = conn; jb_id = id; jb_work = Wreq req;
        jb_limits = request_limits cfg req }
  in
  let sweep_done_response ctx =
    ok
      ~fields:
        [
          ("sweep-done", "1");
          ("bindings", string_of_int ctx.sx_total);
          ("ok", string_of_int ctx.sx_ok);
          ("failed", string_of_int ctx.sx_failed);
        ]
      ()
  in
  (* A whole sweep chunk counts as ONE pending unit on its connection
     (decremented when the terminal frame is emitted): admission stays
     bounded by [cfg_max_pipeline] sweeps, but the reader keeps
     consuming — so a heartbeat ping sent while a long chunk runs is
     answered inline immediately, which is what makes client-side
     liveness detection work.  The analysis pool still bounds the
     actual concurrency; per-binding jobs just queue. *)
  let submit_sweep conn id sw_sources sw_bindings limits =
    let ctx =
      {
        sx_id = id;
        sx_total = List.length sw_bindings;
        sx_done = 0;
        sx_ok = 0;
        sx_failed = 0;
      }
    in
    if ctx.sx_total = 0 then begin
      let resp = sweep_done_response ctx in
      count t resp;
      respond conn (Some id) resp
    end
    else begin
      conn.cn_pending <- conn.cn_pending + 1;
      List.iter
        (fun sb ->
          enqueue_job
            {
              jb_conn = conn;
              jb_id = Some id;
              jb_work =
                Wbinding
                  {
                    wb_ctx = ctx;
                    wb_index = sb.sb_index;
                    wb_name = sb.sb_source;
                    wb_source = List.assoc sb.sb_source sw_sources;
                    wb_function = sb.sb_function;
                    wb_params = sb.sb_params;
                  };
              jb_limits = limits;
            })
        sw_bindings
    end
  in
  (* Session verbs (watch / reanalyze / forget) serialize daemon-wide:
     one at a time, FIFO across connections, so pipelined edits always
     observe a consistent session snapshot and two overlapping
     reanalyzes can never interleave their commits.  Each op counts as
     ONE pending unit on its connection (exactly like a sweep chunk);
     the reader keeps consuming, so heartbeats stay answered while a
     reanalyze streams.  A reanalyze's per-function recomputations run
     concurrently on the analysis pool — only the verbs themselves are
     serialized. *)
  let session_q : (conn * string option * request) Queue.t =
    Queue.create ()
  in
  let session_busy = ref false in
  let reanalyze_done_response ctx (upd : Session.update) =
    ok
      ~fields:
        [
          ("reanalyze-done", "1");
          ("path", upd.Session.up_path);
          ("invalidated", string_of_int (List.length upd.Session.up_invalidated));
          ("recomputed", string_of_int ctx.rz_ok);
          ("failed", string_of_int ctx.rz_failed);
          ("cross-files", string_of_int (List.length upd.Session.up_cross_files));
          ("deleted", string_of_int (List.length upd.Session.up_deleted));
          ("clean", if upd.Session.up_clean then "1" else "0");
        ]
      ~body:
        (Json.to_string
           (Json.Arr
              (List.map
                 (fun (p, m, py) ->
                   Json.Obj
                     [
                       ("file", Json.Str p);
                       ( "functions",
                         Json.Int (List.length m.Model_ir.functions) );
                       ( "python_digest",
                         Json.Str (Digest.to_hex (Digest.string py)) );
                       ("python", Json.Str py);
                     ])
                 upd.Session.up_models)))
      ()
  in
  let rec pump_session () =
    if (not !session_busy) && not (Queue.is_empty session_q) then begin
      let conn, id, req = Queue.pop session_q in
      session_busy := true;
      if conn.cn_dead then begin
        (* the submitter hung up before its turn: release the slot and
           let the next queued op run *)
        session_busy := false;
        pump_session ()
      end
      else
        match req with
        | Reanalyze { rz_path; rz_source } ->
            start_reanalyze conn id rz_path rz_source
        | req ->
            enqueue_job
              {
                jb_conn = conn;
                jb_id = id;
                jb_work = Wsession req;
                jb_limits = request_limits cfg req;
              }
    end
  and finish_session () =
    session_busy := false;
    pump_session ()
  (* answer a session op from the loop thread itself (plan failures,
     clean edits): settle the connection accounting that submission
     charged, then release the session slot *)
  and answer_session conn id resp =
    count t resp;
    conn.cn_pending <- conn.cn_pending - 1;
    (match id with None -> conn.cn_serial_busy <- false | Some _ -> ());
    if not conn.cn_dead then respond conn id resp;
    maybe_close conn;
    finish_session ()
  and start_reanalyze conn id path source =
    match if source <> "" then Ok source else read_path_file path with
    | Error m -> answer_session conn id (error_response ~code:"io" m)
    | Ok text -> (
        match Session.plan t.t_session ~path text with
        | Error d -> answer_session conn id (diag_response d)
        | Ok plan -> (
            match Session.plan_invalidated plan with
            | [] ->
                (* nothing to recompute — commit still refreshes the
                   edited file's tables (and handles deletions) *)
                let upd = Session.commit t.t_session plan [] in
                let ctx =
                  {
                    rz_id = Option.value id ~default:"";
                    rz_plan = plan;
                    rz_total = 0;
                    rz_done = 0;
                    rz_ok = 0;
                    rz_failed = 0;
                    rz_results = [];
                  }
                in
                answer_session conn id (reanalyze_done_response ctx upd)
            | invals ->
                let ctx =
                  {
                    rz_id = Option.value id ~default:"";
                    rz_plan = plan;
                    rz_total = List.length invals;
                    rz_done = 0;
                    rz_ok = 0;
                    rz_failed = 0;
                    rz_results = [];
                  }
                in
                List.iteri
                  (fun i inv ->
                    enqueue_job
                      {
                        jb_conn = conn;
                        jb_id = id;
                        jb_work =
                          Wrecompute
                            {
                              wr_ctx = ctx;
                              wr_index = i;
                              wr_inval = inv;
                              wr_result = None;
                            };
                        jb_limits = cfg.cfg_limits;
                      })
                  invals))
  in
  let submit_session conn id req =
    conn.cn_pending <- conn.cn_pending + 1;
    (match id with None -> conn.cn_serial_busy <- true | Some _ -> ());
    Queue.add (conn, id, req) session_q;
    pump_session ()
  in
  let process_request conn payload =
    let id = payload_id payload in
    match parse_request payload with
    | Error m ->
        let resp = error_response ~code:"bad-request" m in
        count t resp;
        respond conn id resp
    | Ok req -> (
        match (id, req) with
        | Some i, Shutdown ->
            (* exactly-once doesn't mix with concurrency: shutdown is
               answered in-line even when tagged *)
            let resp, _ = handle_inline conn Shutdown in
            count t resp;
            respond conn (Some i) resp;
            stop t
        | _, (Ping | Stats | Health) | None, Shutdown ->
            (* cheap verbs are answered in the loop itself: a ping
               never waits behind a stalled analysis *)
            let resp, after = handle_inline conn req in
            count t resp;
            respond conn id resp;
            (match after with `Stop -> stop t | `Continue -> ())
        | _, (Analyze _ | Eval _) -> submit conn id req
        | _, (Watch _ | Forget _) | Some _, Reanalyze _ ->
            submit_session conn id req
        | None, Reanalyze _ ->
            let resp =
              error_response ~code:"bad-request"
                "reanalyze requires an id= field (its responses stream)"
            in
            count t resp;
            respond conn None resp
        | Some i, Sweep { sw_sources; sw_bindings; _ } ->
            submit_sweep conn i sw_sources sw_bindings
              (request_limits cfg req)
        | None, Sweep _ ->
            (* streamed responses are meaningless without a tag to
               re-associate them *)
            let resp =
              error_response ~code:"bad-request"
                "sweep requires an id= field (its responses stream)"
            in
            count t resp;
            respond conn None resp)
  in
  let process_payload conn payload =
    match cfg.cfg_auth_secret with
    | None -> process_request conn payload
    | Some secret -> (
        match Auth.verify ~secret payload with
        | `Ok stripped -> process_request conn stripped
        | `Missing when conn.cn_transport <> "tcp" ->
            (* unix sockets are already gated by filesystem permission;
               the MAC is optional there (but still verified when
               present — see the `Bad arm) *)
            process_request conn payload
        | (`Missing | `Bad) as why ->
            (* an unauthenticated frame never reaches the request
               parser or the analysis pool: answer with a structured
               error and drop the connection *)
            Atomic.incr t.t_proto_err;
            let resp =
              error_response ~code:"auth"
                (match why with
                | `Missing -> "frame authentication required (no auth= field)"
                | `Bad -> "frame authentication failed (bad MAC)")
            in
            count t resp;
            respond conn (payload_id payload) resp;
            conn.cn_closing <- true;
            maybe_close conn)
  in
  let want_read conn =
    (not conn.cn_dead) && (not conn.cn_closing) && (not conn.cn_poisoned)
    && (not conn.cn_serial_busy)
    && conn.cn_pending < max_pipe
  in
  let frame_err conn e =
    (* the stream position can no longer be trusted: answer if
       possible, then drop the connection.  A checksum mismatch is in
       this class too — the digest covers only the payload, so a
       corrupted length prefix also surfaces as Bad_checksum, and then
       the boundary we read at was never real *)
    Atomic.incr t.t_proto_err;
    enqueue_payload conn
      (encode_response
         (error_response ~code:"bad-frame" (frame_error_to_string e)));
    conn.cn_closing <- true;
    maybe_close conn
  in
  let eof conn =
    match conn.cn_stage with
    | Header when conn.cn_have = 0 ->
        (* a finished client: just let the connection go *)
        conn.cn_closing <- true;
        maybe_close conn
    | _ -> frame_err conn Truncated
  in
  let pump_reads conn =
    (* cap the frames handled per readiness event so one firehose
       connection cannot starve the rest of the loop *)
    let budget = ref 64 in
    let continue = ref true in
    while !continue && want_read conn && !budget > 0 do
      match
        Unix.read conn.cn_fd conn.cn_buf conn.cn_have
          (conn.cn_want - conn.cn_have)
      with
      | 0 ->
          continue := false;
          eof conn
      | r ->
          conn.cn_have <- conn.cn_have + r;
          conn.cn_last_rx <- Unix.gettimeofday ();
          if conn.cn_have = conn.cn_want then begin
            match conn.cn_stage with
            | Header ->
                if
                  Bytes.sub_string conn.cn_buf 0 (String.length magic)
                  <> magic
                then begin
                  continue := false;
                  frame_err conn Bad_magic
                end
                else
                  let len =
                    of_be32
                      (Bytes.sub_string conn.cn_buf 0 header_len)
                      (String.length magic)
                  in
                  if len > cfg.cfg_max_frame_bytes then begin
                    continue := false;
                    frame_err conn (Oversized len)
                  end
                  else begin
                    conn.cn_stage <- Body len;
                    conn.cn_want <- digest_len + len;
                    conn.cn_have <- 0;
                    if Bytes.length conn.cn_buf < conn.cn_want then
                      conn.cn_buf <- Bytes.create conn.cn_want
                  end
            | Body len ->
                let digest = Bytes.sub_string conn.cn_buf 0 digest_len in
                let payload =
                  Bytes.sub_string conn.cn_buf digest_len len
                in
                conn.cn_stage <- Header;
                conn.cn_want <- header_len;
                conn.cn_have <- 0;
                (* do not let one huge frame pin its buffer forever *)
                if Bytes.length conn.cn_buf > 65536 then
                  conn.cn_buf <- Bytes.create header_len;
                decr budget;
                if Digest.string payload <> digest then begin
                  continue := false;
                  frame_err conn Bad_checksum
                end
                else process_payload conn payload
          end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
          continue := false;
          eof conn
      | exception Unix.Unix_error (_, _, _) ->
          continue := false;
          Queue.clear conn.cn_wq;
          conn.cn_poisoned <- true;
          conn.cn_closing <- true;
          maybe_close conn
    done
  in
  let accept_backoff = ref false in
  let accept_ready (lfd, ep) =
    let rec go () =
      match Unix.accept ~cloexec:true lfd with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> go ()
      | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
          (* out of descriptors: leave the connection queued and retry
             after a beat instead of spinning on a readable listener *)
          accept_backoff := true
      | exception Unix.Unix_error (_, _, _) -> ()
      | fd, _ ->
          if Atomic.get t.t_stopping then (
            try Unix.close fd with Unix.Unix_error _ -> ())
          else if Atomic.get t.t_inflight >= cfg.cfg_max_inflight then begin
            shed t fd;
            go ()
          end
          else begin
            (match ep with
            | Endpoint.Tcp _ -> (
                (* frames are small and latency-sensitive; Nagle +
                   delayed ack would add round trips to every
                   pipelined response *)
                try Unix.setsockopt fd Unix.TCP_NODELAY true
                with Unix.Unix_error _ -> ())
            | Endpoint.Unix_sock _ -> ());
            Unix.set_nonblock fd;
            let n = Atomic.fetch_and_add t.t_inflight 1 + 1 in
            bump_hwm t.t_hwm n;
            let now = Unix.gettimeofday () in
            Hashtbl.replace conns fd
              {
                cn_fd = fd;
                cn_transport = Endpoint.transport ep;
                cn_buf = Bytes.create header_len;
                cn_have = 0;
                cn_want = header_len;
                cn_stage = Header;
                cn_wq = Queue.create ();
                cn_pending = 0;
                cn_serial_busy = false;
                cn_closing = false;
                cn_poisoned = false;
                cn_dead = false;
                cn_last_rx = now;
                cn_wstall = now;
              };
            go ()
          end
    in
    go ()
  in
  let process_completions () =
    let items =
      Mutex.lock pool.po_done_mu;
      let acc = Queue.fold (fun acc x -> x :: acc) [] pool.po_done in
      Queue.clear pool.po_done;
      Mutex.unlock pool.po_done_mu;
      List.rev acc
    in
    List.iter
      (fun (job, resp, after) ->
        let conn = job.jb_conn in
        (match job.jb_work with
        | Wreq _ ->
            conn.cn_pending <- conn.cn_pending - 1;
            (match job.jb_id with
            | None -> conn.cn_serial_busy <- false
            | Some _ -> ());
            if not conn.cn_dead then respond conn job.jb_id resp
        | Wsession _ ->
            conn.cn_pending <- conn.cn_pending - 1;
            (match job.jb_id with
            | None -> conn.cn_serial_busy <- false
            | Some _ -> ());
            if not conn.cn_dead then respond conn job.jb_id resp;
            (* the daemon-wide session slot frees only when the op's
               single response has been produced *)
            finish_session ()
        | Wrecompute w ->
            let ctx = w.wr_ctx in
            if not conn.cn_dead then respond conn job.jb_id resp;
            let result =
              match w.wr_result with
              | Some r -> r
              | None ->
                  Error
                    (Diag.make Diag.Driver Diag.Internal_error
                       "recompute finished without a result")
            in
            (match result with
            | Ok _ -> ctx.rz_ok <- ctx.rz_ok + 1
            | Error _ -> ctx.rz_failed <- ctx.rz_failed + 1);
            ctx.rz_results <- (w.wr_inval, result) :: ctx.rz_results;
            ctx.rz_done <- ctx.rz_done + 1;
            if ctx.rz_done = ctx.rz_total then begin
              (* last recomputation landed: commit (reassemble every
                 touched model) and emit the terminal frame *)
              let upd =
                Session.commit t.t_session ctx.rz_plan
                  (List.rev ctx.rz_results)
              in
              conn.cn_pending <- conn.cn_pending - 1;
              let term = reanalyze_done_response ctx upd in
              count t term;
              if not conn.cn_dead then respond conn (Some ctx.rz_id) term;
              finish_session ()
            end
        | Wbinding { wb_ctx = ctx; _ } ->
            (* the sweep holds its single pending unit until the last
               binding lands; only then does the terminal frame go out
               and the unit release *)
            if not conn.cn_dead then respond conn job.jb_id resp;
            if resp.rs_status = "ok" then ctx.sx_ok <- ctx.sx_ok + 1
            else ctx.sx_failed <- ctx.sx_failed + 1;
            ctx.sx_done <- ctx.sx_done + 1;
            if ctx.sx_done = ctx.sx_total then begin
              conn.cn_pending <- conn.cn_pending - 1;
              if not conn.cn_dead then
                respond conn (Some ctx.sx_id) (sweep_done_response ctx)
            end);
        (match after with `Stop -> stop t | `Continue -> ());
        maybe_close conn)
      items
  in
  let drained = ref false in
  let drain_deadline = ref infinity in
  let begin_drain () =
    if not !drained then begin
      drained := true;
      Atomic.set t.t_stopping true;
      (* no new admissions *)
      List.iter
        (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.t_listen;
      List.iter
        (function
          | Endpoint.Unix_sock p -> (
              try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
          | Endpoint.Tcp _ -> ())
        (bound_endpoints t);
      drain_deadline :=
        Unix.gettimeofday () +. (float_of_int cfg.cfg_drain_ms /. 1000.0);
      (* serve whatever was already on the wire, then stop reading:
         in-flight requests get the full drain window to finish *)
      List.iter (fun c -> if not c.cn_dead then pump_reads c) (live ());
      List.iter
        (fun c ->
          if not c.cn_dead then begin
            c.cn_closing <- true;
            maybe_close c
          end)
        (live ())
    end
  in
  let reap now =
    match idle_s with
    | None -> ()
    | Some idle ->
        let victims =
          Hashtbl.fold
            (fun _ c acc ->
              if c.cn_dead then acc
              else
                match Queue.peek_opt c.cn_wq with
                | Some head ->
                    (* a wedged client that stopped reading; a chunk
                       the server itself delayed does not count *)
                    if
                      head.wc_not_before <= now
                      && now -. c.cn_wstall >= idle
                    then c :: acc
                    else acc
                | None ->
                    (* idle only counts when nothing is in flight: a
                       pipelining client quietly waiting for its
                       responses is not a slow-loris *)
                    if
                      c.cn_pending = 0 && (not c.cn_closing)
                      && now -. c.cn_last_rx >= idle
                    then c :: acc
                    else acc)
            conns []
        in
        List.iter close_conn victims
  in
  let next_timeout now =
    let dl = ref (if !drained then !drain_deadline else infinity) in
    let consider x = if x < !dl then dl := x in
    Hashtbl.iter
      (fun _ c ->
        if not c.cn_dead then
          match Queue.peek_opt c.cn_wq with
          | Some head ->
              if head.wc_not_before > now then consider head.wc_not_before;
              (match idle_s with
              | Some idle -> consider (c.cn_wstall +. idle)
              | None -> ())
          | None -> (
              match idle_s with
              | Some idle when c.cn_pending = 0 && not c.cn_closing ->
                  consider (c.cn_last_rx +. idle)
              | _ -> ()))
      conns;
    let ms =
      if !dl = infinity then -1
      else max 0 (int_of_float (ceil ((!dl -. now) *. 1000.0)))
    in
    if !accept_backoff then if ms < 0 then 50 else min ms 50 else ms
  in
  let pipe_buf = Bytes.create 512 in
  let drain_pipe fd =
    let rec go () =
      match Unix.read fd pipe_buf 0 (Bytes.length pipe_buf) with
      | n when n = Bytes.length pipe_buf -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()
  in
  let running = ref true in
  while !running do
    let now = Unix.gettimeofday () in
    if Atomic.get t.t_stopping then begin_drain ();
    process_completions ();
    reap now;
    if !drained && now >= !drain_deadline then
      (* hard deadline passed: force the stragglers shut *)
      List.iter
        (fun c ->
          (try Unix.shutdown c.cn_fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ());
          close_conn c)
        (live ());
    if !drained && Hashtbl.length conns = 0 then running := false
    else begin
      let rd = ref [ t.t_stop_r; wake_r ] in
      if not (Atomic.get t.t_stopping) then
        List.iter (fun (fd, _) -> rd := fd :: !rd) t.t_listen;
      let wr = ref [] in
      Hashtbl.iter
        (fun fd c ->
          if want_read c then rd := fd :: !rd;
          match Queue.peek_opt c.cn_wq with
          | Some head when head.wc_not_before <= now -> wr := fd :: !wr
          | _ -> ())
        conns;
      let timeout_ms = next_timeout now in
      accept_backoff := false;
      let readable, writable =
        Poller.wait ~read:!rd ~write:!wr ~timeout_ms ()
      in
      List.iter
        (fun fd ->
          if fd = t.t_stop_r then begin
            drain_pipe t.t_stop_r;
            begin_drain ()
          end
          else if fd = wake_r then drain_pipe wake_r
          else
            match List.assoc_opt fd t.t_listen with
            | Some ep -> accept_ready (fd, ep)
            | None -> (
                match Hashtbl.find_opt conns fd with
                | Some c -> pump_reads c
                | None -> ()))
        readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt conns fd with
          | Some c -> pump_writes c
          | None -> ())
        writable
    end
  done;
  (* release the pool: idle workers exit; one stuck mid-analysis is
     abandoned, exactly as the drain abandoned its connection *)
  Mutex.lock pool.po_mu;
  pool.po_stop <- true;
  Condition.broadcast pool.po_cv;
  Mutex.unlock pool.po_mu;
  Mutex.lock pool.po_done_mu;
  pool.po_closed <- true;
  Mutex.unlock pool.po_done_mu;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  (try Unix.close t.t_stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.t_stop_w with Unix.Unix_error _ -> ());
  stats t

(* ---------- client helpers ---------- *)

let connect ?io_timeout_ms path =
  Endpoint.connect ?io_timeout_ms (Endpoint.Unix_sock path)

let roundtrip ?faults ?max_bytes ?auth_secret fd req =
  let payload = encode_request req in
  let payload =
    match auth_secret with
    | Some secret -> Auth.seal ~secret payload
    | None -> payload
  in
  match write_frame ?faults fd payload with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("write: " ^ Unix.error_message e)
  | exception Faults.Injected site -> Error ("injected: " ^ site)
  | () -> (
      match read_frame ?max_bytes fd with
      | Error e -> Error (frame_error_to_string e)
      | Ok payload -> (
          match auth_secret with
          | None -> parse_response payload
          | Some secret -> (
              (* a secret-bearing daemon seals every response; accept
                 nothing less than a valid MAC *)
              match Auth.verify ~secret payload with
              | `Ok stripped -> parse_response stripped
              | `Missing | `Bad -> Error "response failed authentication")))

let wait_ready ?(timeout_s = 5.0) path =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let ready =
      (* each probe is individually bounded so a half-up daemon cannot
         park one past the caller's overall deadline *)
      match connect ~io_timeout_ms:1000 path with
      | exception (Unix.Unix_error _ | Sys_error _) -> false
      | fd ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              match roundtrip fd Ping with
              | Ok { rs_status = "ok"; _ } -> true
              | _ -> false)
    in
    if ready then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()
