(* The analysis daemon.  Layering, bottom up:

   - frame I/O: length-prefixed, versioned, checksummed frames over a
     file descriptor; one resumable decoder assembles every frame read,
     and one decision ([wire_fault]) picks the injected wire fault for
     both frame writers;
   - payload codec: a tiny line-oriented grammar shared by requests
     and responses;
   - the server: a single event loop (poll(2) via {!Poller}) in the
     calling thread that only routes frames.  It drives non-blocking
     per-connection state machines, answers ping/health/stats/shutdown
     itself, and hands everything else to a fixed pool of
     [cfg_workers] threads as the one kind of job: a closure run on a
     worker, paired with a closure run back on the loop when it
     lands.  The loop does no file I/O and no analysis.  An admitted
     connection costs a descriptor and a small record, not a thread,
     so thousands of idle connections are cheap; admission is bounded
     with load shedding, and stop drains gracefully;
   - client helpers: the one sealed [send] and the one response opener
     ([open_response]) every client path uses.

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

(* The one frame decoder.  Every reader of frames assembles them here
   (the blocking [read_frame], the event loop and {!Client}'s reader),
   so the magic, the length cap and the digest are checked nowhere
   else.  It is resumable: each [decode] makes one read(2) of at most
   the rest of the current stage (the header, then the digest and
   payload), so a read that would block, or whose SO_RCVTIMEO expires,
   leaves the partial frame in place for the next call, and no byte
   past the current frame is ever consumed. *)
type decoder = {
  d_max : int;  (* largest accepted payload *)
  mutable d_buf : Bytes.t;
  mutable d_have : int;
  mutable d_len : int;  (* declared payload length; -1 in the header *)
}

type progress = Frame of string | Partial | Blocked

let default_max_frame = 4 * 1024 * 1024

let decoder ?(max_bytes = default_max_frame) () =
  { d_max = max_bytes; d_buf = Bytes.create header_len; d_have = 0; d_len = -1 }

let rec decode d fd =
  let want = if d.d_len < 0 then header_len else digest_len + d.d_len in
  let eof () =
    if d.d_len < 0 && d.d_have = 0 then Error Closed else Error Truncated
  in
  match Unix.read fd d.d_buf d.d_have (want - d.d_have) with
  | exception Unix.Unix_error (EINTR, _, _) -> decode d fd
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Ok Blocked
  (* a reset peer reads as EOF *)
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> eof ()
  | 0 -> eof ()
  | r ->
      d.d_have <- d.d_have + r;
      if d.d_have < want then Ok Partial
      else if d.d_len < 0 then begin
        let header = Bytes.sub_string d.d_buf 0 header_len in
        let len = of_be32 header (String.length magic) in
        if String.sub header 0 (String.length magic) <> magic then
          Error Bad_magic
        else if len > d.d_max then Error (Oversized len)
        else begin
          d.d_len <- len;
          d.d_have <- 0;
          if Bytes.length d.d_buf < digest_len + len then
            d.d_buf <- Bytes.create (digest_len + len);
          Ok Partial
        end
      end
      else begin
        let digest = Bytes.sub_string d.d_buf 0 digest_len in
        let payload = Bytes.sub_string d.d_buf digest_len d.d_len in
        d.d_len <- -1;
        d.d_have <- 0;
        (* do not let one huge frame pin its buffer forever *)
        if Bytes.length d.d_buf > 65536 then d.d_buf <- Bytes.create header_len;
        if Digest.string payload <> digest then Error Bad_checksum
        else Ok (Frame payload)
      end

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

(* a secret-bearing peer seals everything it sends; without a secret
   the bytes are identical to every earlier release *)
let seal secret payload =
  match secret with Some secret -> Auth.seal ~secret payload | None -> payload

(* Which wire fault, if any, one outgoing payload suffers.  Both frame
   writers (the blocking [write_frame] and the event loop's write
   queue) act on this one decision, so a schedule fires the same sites,
   on the same subjects, in the same order whichever writer sends. *)
type wire_fault =
  | Clean
  | Kill  (* death between frames: nothing written, the socket severed *)
  | Disconnect  (* the peer vanishes mid-frame: half a frame, hard close *)
  | Short_write  (* a dropped write: half a frame, then nothing *)
  | Slow of float  (* the header now, the payload this many seconds later *)

let wire_fault faults payload =
  match faults with
  | None -> Clean
  | Some f ->
      let subject = Digest.to_hex (Digest.string payload) in
      let fires p site = Faults.fires f ~p ~site ~subject in
      if fires f.Faults.kill_p "net_kill" then Kill
      else if fires f.disconnect_p "net_disconnect" then Disconnect
      else if fires f.net_write_p "net_write" then Short_write
      else if f.slow_ms > 0 && fires f.slow_p "net_slow" then
        Slow (float_of_int f.slow_ms /. 1000.0)
      else Clean

let first_half s = String.sub s 0 (String.length s / 2)
let after_header s = String.sub s header_len (String.length s - header_len)

let write_frame ?faults fd payload =
  let data = frame payload in
  let sever () =
    try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  in
  match wire_fault faults payload with
  | Clean -> write_all fd data
  | Kill ->
      sever ();
      raise (Faults.Injected "net_kill")
  | Disconnect ->
      write_all fd (first_half data);
      sever ();
      raise (Faults.Injected "net_disconnect")
  | Short_write ->
      write_all fd (first_half data);
      raise (Faults.Injected "net_write")
  | Slow s ->
      write_all fd (String.sub data 0 header_len);
      Unix.sleepf s;
      write_all fd (after_header data)

(* a decoder that lives for one frame: a timeout mid-frame takes the
   partial frame with it *)
let read_frame ?max_bytes fd =
  let d = decoder ?max_bytes () in
  let rec go () =
    match decode d fd with
    | Ok (Frame payload) -> Ok payload
    | Ok Partial -> go ()
    | Ok Blocked -> Error Timed_out
    | Error e -> Error e
  in
  go ()

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
  (* per-request tier outcomes, each exact for its own request; the
     cache-wide counters are read from the cache itself ([stats]) *)
  t_analyzed : int Atomic.t;
  t_mem_hits : int Atomic.t;
  t_disk_hits : int Atomic.t;
  t_assembled : int Atomic.t;
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
  ignore (Atomic.fetch_and_add t.t_analyzed s.Batch.st_analyzed);
  ignore (Atomic.fetch_and_add t.t_mem_hits s.Batch.st_mem_hits);
  ignore (Atomic.fetch_and_add t.t_disk_hits s.Batch.st_disk_hits);
  ignore (Atomic.fetch_and_add t.t_assembled s.Batch.st_assembled)

(* The function-tier, corruption and I/O counters are the cache's own:
   a request's [Batch.stats] deltas also count the traffic of requests
   running concurrently on other workers, so summing them would count
   each event once per overlapping request. *)
let stats t =
  let h = Option.map Batch.cache_health t.t_cfg.cfg_cache in
  let hf f = match h with None -> 0 | Some h -> f h in
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
    sv_analyzed = Atomic.get t.t_analyzed;
    sv_mem_hits = Atomic.get t.t_mem_hits;
    sv_disk_hits = Atomic.get t.t_disk_hits;
    sv_assembled = Atomic.get t.t_assembled;
    sv_fn_mem_hits = hf (fun h -> h.Batch.h_fn_mem_hits);
    sv_fn_disk_hits = hf (fun h -> h.Batch.h_fn_disk_hits);
    sv_fn_analyzed = hf (fun h -> h.Batch.h_fn_fresh);
    sv_cache_corrupt = hf (fun h -> h.Batch.h_corrupt);
    sv_io_retries = hf (fun h -> h.Batch.h_io_retries);
    sv_io_failures = hf (fun h -> h.Batch.h_io_failures);
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
    t_analyzed = Atomic.make 0;
    t_mem_hits = Atomic.make 0;
    t_disk_hits = Atomic.make 0;
    t_assembled = Atomic.make 0;
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
   the operator's).  Computed once at admission and carried in the
   job's closure, so the worker that runs it needs no ambient
   per-thread state to find it. *)
let request_limits (cfg : config) b =
  Limits.clamp cfg.cfg_limits ~fuel:b.rq_fuel ~timeout_ms:b.rq_timeout_ms
    ~depth:b.rq_depth

let analyze_source t ~name ~source ~limits =
  let cfg = t.t_cfg in
  let results, stats =
    Batch.run ~jobs:1 ?cache:cfg.cfg_cache ~level:cfg.cfg_level ~limits
      ?faults:cfg.cfg_faults
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

(* The readiness probe's view of the daemon.  Order matters: a
   draining daemon is "draining" even while saturated, and a booting
   one is "starting" whatever its counters say — a supervisor restarts
   a wedged "starting" child but leaves a "draining" one alone. *)
let health_state t =
  if Atomic.get t.t_stopping then "draining"
  else if not (Atomic.get t.t_ready) then "starting"
  else if Atomic.get t.t_inflight >= t.t_cfg.cfg_max_inflight then "overloaded"
  else "ready"

(* purely additive: a new verb plus response fields, nothing in the
   existing grammar moves (docs/PROTOCOL.md, "health") *)
let health_response t =
  ok
    ~fields:
      [
        ("state", health_state t);
        ("inflight", string_of_int (Atomic.get t.t_inflight));
        ("max-inflight", string_of_int t.t_cfg.cfg_max_inflight);
        ("workers", string_of_int t.t_cfg.cfg_workers);
        ("served", string_of_int (Atomic.get t.t_served));
        ("failed", string_of_int (Atomic.get t.t_failed));
      ]
    ()

(* protocol introspection rides along: a pool can refuse a mismatched
   daemon with a clear diagnostic instead of a decode error *)
let stats_response t ~transport =
  let s = stats t in
  ok
    ~fields:
      ([ ("proto", proto); ("transport", transport) ]
      @ compile_fields s
      @ session_counter_fields (Session.counters t.t_session))
    ~body:
      (String.concat ""
         (List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n") (stats_fields s)))
    ()

(* watch/reanalyze with an empty body read the file from the daemon's
   own filesystem (shared-filesystem deployment); failures are
   ordinary io-coded error responses, never exceptions.  Only pool
   workers call this: a path naming a FIFO or a hung mount parks one
   worker, never the event loop. *)
let read_source path source =
  if source <> "" then Ok source
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error m -> Error (error_response ~code:"io" m)
    | exception Unix.Unix_error (e, _, _) ->
        Error (error_response ~code:"io" (path ^ ": " ^ Unix.error_message e))

let watch_response t ~path ~source =
  match read_source path source with
  | Error r -> r
  | Ok text -> (
      match Session.watch t.t_session ~path text with
      | Error d -> diag_response d
      | Ok info ->
          ok
            ~fields:
              [
                ("path", info.Session.in_path);
                ( "functions",
                  string_of_int (List.length info.Session.in_functions) );
              ]
            ~body:(Json.to_string (Json.of_model info.Session.in_model))
            ())

let forget_response t ~path =
  ok
    ~fields:
      [
        ("path", path);
        ("forgotten", if Session.forget t.t_session ~path then "1" else "0");
      ]
    ()

(* One streamed reanalyze frame per invalidated function: the routing
   fields name the function and why it was invalidated; the body
   carries its recomputed part summary (the final python needs the
   assembled model and rides on the terminal frame). *)
let recompute_frame index (inv : Session.inval) result =
  let reason = Session.reason_to_string inv.iv_reason in
  let tag =
    [
      ("binding", string_of_int index);
      ("file", inv.iv_file);
      ("function", inv.iv_func);
      ("reason", reason);
    ]
  in
  match result with
  | Error d ->
      let base = diag_response d in
      { base with rs_fields = tag @ base.rs_fields }
  | Ok (part : Metric_gen.part) ->
      let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
      ok ~fields:tag
        ~body:
          (Json.to_string
             (Json.Obj
                [
                  ("file", Json.Str inv.iv_file);
                  ("function", Json.Str inv.iv_func);
                  ("reason", Json.Str reason);
                  ("source_params", strs part.fp_source_params);
                  ("arity", Json.Int part.fp_arity);
                  ( "class",
                    match part.fp_class with
                    | None -> Json.Null
                    | Some c -> Json.Str c );
                  ("warnings", strs part.fp_warnings);
                ]))
        ()

(* the terminal reanalyze frame; the commit received exactly one
   result per invalidated function *)
let reanalyze_done_response (upd : Session.update) =
  let count l = string_of_int (List.length l) in
  ok
    ~fields:
      [
        ("reanalyze-done", "1");
        ("path", upd.up_path);
        ("invalidated", count upd.up_invalidated);
        ( "recomputed",
          string_of_int (List.length upd.up_invalidated - upd.up_failed) );
        ("failed", string_of_int upd.up_failed);
        ("cross-files", count upd.up_cross_files);
        ("deleted", count upd.up_deleted);
        ("clean", if upd.up_clean then "1" else "0");
      ]
    ~body:
      (Json.to_string
         (Json.Arr
            (List.map
               (fun (p, m) ->
                 let py = Python_emit.emit m in
                 Json.Obj
                   [
                     ("file", Json.Str p);
                     ("functions", Json.Int (List.length m.Model_ir.functions));
                     ( "python_digest",
                       Json.Str (Digest.to_hex (Digest.string py)) );
                     ("python", Json.Str py);
                   ])
               upd.up_models)))
    ()

let sweep_done_response ~bindings ~succeeded ~failed =
  ok
    ~fields:
      [
        ("sweep-done", "1");
        ("bindings", string_of_int bindings);
        ("ok", string_of_int succeeded);
        ("failed", string_of_int failed);
      ]
    ()

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

type conn = {
  cn_fd : Unix.file_descr;
  cn_transport : string;
  cn_dec : decoder;
  cn_wq : wchunk Queue.t;
  mutable cn_pending : int;  (* held units: requests not yet answered *)
  mutable cn_serial_busy : bool;  (* an untagged request is unanswered *)
  mutable cn_closing : bool;  (* stop reading; close once settled *)
  mutable cn_poisoned : bool;  (* write path is gone: drop writes *)
  mutable cn_dead : bool;  (* descriptor closed *)
  mutable cn_last_rx : float;  (* last byte received (idle reaping) *)
  mutable cn_wstall : float;  (* last write progress (stall reaping) *)
}

(* ---------- worker pool ---------- *)

(* The daemon's one kind of job: a closure run on a pool worker that
   returns the closure to run on the event-loop thread once the job
   lands (see [spawn] in {!serve}).  Workers are interchangeable and
   keep no per-request state between jobs, so the pool, not the
   request rate, bounds every per-thread structure downstream. *)
type pool = {
  po_mu : Mutex.t;
  po_cv : Condition.t;
  po_jobs : (unit -> unit -> unit) Queue.t;
  mutable po_stop : bool;
  po_done_mu : Mutex.t;
  po_done : (unit -> unit) Queue.t;
  mutable po_closed : bool;  (* wake pipe closed; stop writing to it *)
  po_wake_w : Unix.file_descr;
}

let worker_loop pool =
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
        let landing = job () in
        Mutex.lock pool.po_done_mu;
        Queue.add landing pool.po_done;
        (* wake the event loop; a full pipe already has wake bytes in
           it, so a failed write is never a lost wakeup *)
        if not pool.po_closed then (
          try ignore (Unix.write pool.po_wake_w wake 0 1)
          with Unix.Unix_error _ -> ());
        Mutex.unlock pool.po_done_mu;
        next ()
  in
  next ()

(* a job's outcome as one response: whatever escaped the job is a
   structured error frame, never a dead daemon *)
let response_of = function Ok r -> r | Error d -> diag_response d

(* ---------- load shedding ---------- *)

let shed t fd =
  Atomic.incr t.t_shed;
  let payload =
    seal t.t_cfg.cfg_auth_secret (encode_response overloaded_response)
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
    ignore (Thread.create worker_loop pool)
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
      let payload = seal cfg.cfg_auth_secret payload in
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
      let poison () =
        conn.cn_poisoned <- true;
        conn.cn_closing <- true
      in
      if Queue.is_empty conn.cn_wq then
        conn.cn_wstall <- Unix.gettimeofday ();
      (match wire_fault cfg.cfg_faults payload with
      | Clean -> chunk data
      | Kill ->
          (* this frame, and anything still queued behind the kernel's
             back, never reaches the peer *)
          Queue.clear conn.cn_wq;
          (try Unix.shutdown conn.cn_fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ());
          poison ()
      | Disconnect ->
          chunk ~shutdown_after:true (first_half data);
          poison ()
      | Short_write ->
          chunk (first_half data);
          poison ()
      | Slow s ->
          (* without parking a thread for the interval *)
          chunk (String.sub data 0 header_len);
          chunk ~not_before:(Unix.gettimeofday () +. s) (after_header data));
      pump_writes conn
    end
  in
  (* every answered frame is counted, once, here *)
  let send conn id resp =
    if resp.rs_status = "ok" then Atomic.incr t.t_served
    else Atomic.incr t.t_failed;
    enqueue_payload conn
      (encode_response
         (match id with
         | Some i -> { resp with rs_fields = ("id", i) :: resp.rs_fields }
         | None -> resp))
  in
  (* A request holds one pending unit on its connection until its last
     frame is sent: an analyze, an eval, a session op, or a whole sweep
     however many frames it streams.  [cfg_max_pipeline] units stop the
     reader, and an untagged request stops it alone (strictly serial);
     otherwise the reader keeps consuming, so a heartbeat ping sent
     while a long sweep streams is answered at once. *)
  let hold conn id =
    conn.cn_pending <- conn.cn_pending + 1;
    if id = None then conn.cn_serial_busy <- true
  in
  let release conn id =
    conn.cn_pending <- conn.cn_pending - 1;
    if id = None then conn.cn_serial_busy <- false;
    maybe_close conn
  in
  (* [spawn work landing]: [work] runs on a pool worker, then
     [landing] on this thread with its result, or with the diagnostic
     of whatever [work] raised *)
  let spawn work landing =
    let job () =
      let r = try Ok (work ()) with e -> Error (Diag.of_exn e) in
      fun () -> landing r
    in
    Mutex.lock pool.po_mu;
    Queue.add job pool.po_jobs;
    Condition.signal pool.po_cv;
    Mutex.unlock pool.po_mu
  in
  (* a held request answered by one frame computed on the pool *)
  let answer ?(after = ignore) conn id work =
    spawn work (fun r ->
        send conn id (response_of r);
        release conn id;
        after ())
  in
  (* Each binding of a sweep chunk is its own pool job, and the one
     that completes the chunk sends the terminal [sweep-done] frame. *)
  let sweep conn id sources bindings limits =
    let total = List.length bindings in
    let succeeded = ref 0 and failed = ref 0 in
    let done_frame () =
      sweep_done_response ~bindings:total ~succeeded:!succeeded ~failed:!failed
    in
    if total = 0 then send conn id (done_frame ())
    else begin
      hold conn id;
      List.iter
        (fun sb ->
          spawn
            (fun () ->
              handle_eval t ~limits ~name:sb.sb_source
                ~source:(List.assoc sb.sb_source sources)
                ~fname:sb.sb_function ~params:sb.sb_params)
            (fun r ->
              let r = response_of r in
              incr (if r.rs_status = "ok" then succeeded else failed);
              (* the binding index is how the coordinator knows which
                 evaluation this frame answers *)
              send conn id
                {
                  r with
                  rs_fields =
                    ("binding", string_of_int sb.sb_index) :: r.rs_fields;
                };
              if !succeeded + !failed = total then begin
                send conn id (done_frame ());
                release conn id
              end))
        bindings
    end
  in
  (* Session verbs (watch / reanalyze / forget) serialize daemon-wide:
     one at a time, FIFO across connections, so pipelined edits always
     observe a consistent session snapshot and two overlapping
     reanalyzes can never interleave their commits.  Each op holds its
     connection's unit from the moment it queues. *)
  let session_q = Queue.create () and session_busy = ref false in
  let rec next_session () =
    if not !session_busy then
      match Queue.take_opt session_q with
      | None -> ()
      | Some (conn, _) when conn.cn_dead ->
          (* the submitter hung up before its turn *)
          next_session ()
      | Some (_, op) ->
          session_busy := true;
          op ()
  in
  let session_done () =
    session_busy := false;
    next_session ()
  in
  let session conn id op =
    hold conn id;
    Queue.add (conn, op) session_q;
    next_session ()
  in
  (* A reanalyze runs as pool jobs end to end: the file read and the
     plan, one recomputation per invalidated function (their frames
     stream as they land), then the commit, whose terminal frame ends
     the op. *)
  let reanalyze conn id path source =
    let finish r =
      send conn id r;
      release conn id;
      session_done ()
    in
    let commit plan results =
      spawn
        (fun () ->
          reanalyze_done_response (Session.commit t.t_session plan results))
        (fun r -> finish (response_of r))
    in
    spawn
      (fun () ->
        Result.bind (read_source path source) (fun text ->
            Session.plan t.t_session ~path text
            |> Result.map_error diag_response))
      (function
        | Error d -> finish (diag_response d)
        | Ok (Error r) -> finish r
        | Ok (Ok plan) -> (
            match Session.plan_invalidated plan with
            | [] -> commit plan []
            | invals ->
                let results = ref [] and left = ref (List.length invals) in
                List.iteri
                  (fun i inv ->
                    spawn
                      (fun () -> Session.recompute t.t_session plan inv)
                      (fun r ->
                        let r = Result.join r in
                        results := (inv, r) :: !results;
                        send conn id (recompute_frame i inv r);
                        decr left;
                        if !left = 0 then commit plan !results))
                  invals))
  in
  (* The one dispatch over verbs.  Cheap verbs are answered right here
     on the loop, so a ping never waits behind a stalled analysis;
     everything else runs on the pool. *)
  let process_request conn payload =
    let id = payload_id payload in
    match parse_request payload with
    | Error m -> send conn id (error_response ~code:"bad-request" m)
    | Ok req -> (
        match (req, id) with
        | Ping, _ -> send conn id (ok ~fields:[ ("pong", "1") ] ())
        | Health, _ -> send conn id (health_response t)
        | Stats, _ ->
            send conn id (stats_response t ~transport:conn.cn_transport)
        | Shutdown, _ ->
            (* exactly-once doesn't mix with concurrency: shutdown is
               answered in-line even when tagged *)
            send conn id (ok ~fields:[ ("stopping", "1") ] ());
            stop t
        | Analyze { an_name; an_source; an_budget }, _ ->
            let limits = request_limits cfg an_budget in
            hold conn id;
            answer conn id (fun () ->
                handle_analyze t ~limits ~name:an_name ~source:an_source)
        | Eval { ev_name; ev_source; ev_function; ev_params; ev_budget }, _ ->
            let limits = request_limits cfg ev_budget in
            hold conn id;
            answer conn id (fun () ->
                handle_eval t ~limits ~name:ev_name ~source:ev_source
                  ~fname:ev_function ~params:ev_params)
        | Sweep { sw_sources; sw_bindings; sw_budget }, Some _ ->
            sweep conn id sw_sources sw_bindings (request_limits cfg sw_budget)
        | Watch { wt_path; wt_source }, _ ->
            session conn id (fun () ->
                answer ~after:session_done conn id (fun () ->
                    watch_response t ~path:wt_path ~source:wt_source))
        | Forget { fg_path }, _ ->
            session conn id (fun () ->
                answer ~after:session_done conn id (fun () ->
                    forget_response t ~path:fg_path))
        | Reanalyze { rz_path; rz_source }, Some _ ->
            session conn id (fun () -> reanalyze conn id rz_path rz_source)
        | (Sweep _ | Reanalyze _), None ->
            (* streamed responses are meaningless without a tag to
               re-associate them *)
            send conn None
              (error_response ~code:"bad-request"
                 (Printf.sprintf
                    "%s requires an id= field (its responses stream)"
                    (match req with Sweep _ -> "sweep" | _ -> "reanalyze"))))
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
            send conn (payload_id payload)
              (error_response ~code:"auth"
                 (match why with
                 | `Missing -> "frame authentication required (no auth= field)"
                 | `Bad -> "frame authentication failed (bad MAC)"));
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
  let pump_reads conn =
    (* cap the frames handled per readiness event so one firehose
       connection cannot starve the rest of the loop *)
    let budget = ref 64 in
    let continue = ref true in
    while !continue && want_read conn && !budget > 0 do
      match decode conn.cn_dec conn.cn_fd with
      | Ok Blocked -> continue := false
      | Ok Partial -> conn.cn_last_rx <- Unix.gettimeofday ()
      | Ok (Frame payload) ->
          conn.cn_last_rx <- Unix.gettimeofday ();
          decr budget;
          process_payload conn payload
      | Error Closed ->
          (* a finished client: just let the connection go *)
          continue := false;
          conn.cn_closing <- true;
          maybe_close conn
      | Error e ->
          continue := false;
          frame_err conn e
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
                cn_dec = decoder ~max_bytes:cfg.cfg_max_frame_bytes ();
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
    let landed =
      Mutex.lock pool.po_done_mu;
      let l = List.of_seq (Queue.to_seq pool.po_done) in
      Queue.clear pool.po_done;
      Mutex.unlock pool.po_done_mu;
      l
    in
    List.iter (fun landing -> landing ()) landed
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

(* The one sealed send and response opener every client path shares:
   with a secret, requests go out sealed and only sealed responses are
   accepted, since a secret-bearing daemon seals everything it sends. *)
let send ?faults ?auth_secret ?id fd req =
  write_frame ?faults fd (seal auth_secret (encode_request ?id req))

let open_response ?auth_secret payload =
  let payload =
    match auth_secret with
    | None -> Ok payload
    | Some secret -> (
        match Auth.verify ~secret payload with
        | `Ok stripped -> Ok stripped
        | `Missing | `Bad -> Error "response failed authentication")
  in
  Result.bind payload parse_response

let roundtrip ?faults ?max_bytes ?auth_secret fd req =
  match send ?faults ?auth_secret fd req with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("write: " ^ Unix.error_message e)
  | exception Faults.Injected site -> Error ("injected: " ^ site)
  | () -> (
      match read_frame ?max_bytes fd with
      | Error e -> Error (frame_error_to_string e)
      | Ok payload -> open_response ?auth_secret payload)

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
