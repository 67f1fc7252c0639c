(* ---------- names and frames ---------- *)

type 'a tier = { suffix : string; magic : string; validate : 'a -> bool }

(* The suffix of every tier that may share a cache directory.  The
   housekeeping below touches only [<hex key><suffix>] names with one of
   these suffixes, and their temporaries, so any other file in the
   directory is never renamed, deleted or copied. *)
let suffixes = [ ".model"; ".fnmodel"; ".prog" ]

let tier ~suffix ~magic ~validate =
  if not (List.mem suffix suffixes) then invalid_arg ("Store.tier " ^ suffix);
  { suffix; magic; validate }

let lock_file_name = ".lock"
let quarantine_suffix = ".quarantined"

(* One rule for every writer: the pid separates processes (thread ids
   restart at 0 in each), the thread id separates one process's daemon
   threads and worker domains. *)
let tmp_name path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Thread.id (Thread.self ()))

let is_entry_name f =
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  match String.index_opt f '.' with
  | None | Some 0 -> false
  | Some i ->
      String.for_all is_hex (String.sub f 0 i)
      && List.mem (String.sub f i (String.length f - i)) suffixes

(* an entry name, then [.tmp.] and its writer's ids *)
let is_tmp_name f =
  match String.split_on_char '.' f with
  | stem :: ext :: "tmp" :: _ :: _ -> is_entry_name (stem ^ "." ^ ext)
  | _ -> false

exception Corrupt

let frame ~magic body = magic ^ Digest.string body ^ body

(* The magic is everything up to the first newline, so any tier's frame
   can be verified without knowing the tier. *)
let unframe data =
  match String.index_opt data '\n' with
  | None -> raise Corrupt
  | Some i ->
      let start = i + 1 + 16 in
      if String.length data < start then raise Corrupt;
      let body = String.sub data start (String.length data - start) in
      if Digest.string body <> String.sub data (i + 1) 16 then raise Corrupt;
      (String.sub data 0 (i + 1), body)

let decode tier data =
  let magic, body = unframe data in
  if magic <> tier.magic then raise Corrupt;
  (* the checksum matched, so these are the bytes a writer of this tier
     produced and unmarshalling is safe *)
  match Marshal.from_string body 0 with
  | v when tier.validate v -> v
  | _ | (exception _) -> raise Corrupt

let read_file path = In_channel.with_open_bin path In_channel.input_all
let mkdir dir = try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let readdir_sorted dir =
  match Sys.readdir dir with
  | names ->
      Array.sort compare names;
      Some names
  | exception Sys_error _ -> None

(* ---------- the directory lock ----------

   A daemon and a concurrent [mira batch] may share one cache
   directory.  Publication alone is safe (atomic rename, checksummed
   frames), but eviction is not: one process's GC or orphan sweep could
   delete a temporary the other was mid-writing.  An advisory
   [Unix.lockf] lock on [.lock] coordinates them: writers hold it
   {e shared} for the write+rename window; the sweep, the recovery scan
   and GC hold it {e exclusive}.

   POSIX record locks are per-process (closing {e any} descriptor of
   the lock file drops {e all} of the process's locks on it, and locks
   taken on two descriptors by one process never conflict), so the
   file lock alone cannot coordinate threads or domains of one
   process.  Each directory therefore gets one cached descriptor that
   is {e never closed}, plus an in-process holder mode: shared holders
   are counted (the first takes the file lock, the last releases it,
   and their sections run concurrently), an exclusive holder excludes
   everyone.  The per-directory mutex covers only these transitions,
   never a caller's critical section.  The registry is keyed by the
   directory path as given; processes use one consistent path per
   cache, as the CLI does. *)

type dir_state = {
  d_mu : Mutex.t;
  mutable d_fd : Unix.file_descr option;  (* cached, never closed *)
  mutable d_mode : [ `Free | `Shared of int | `Exclusive ];
  mutable d_housekept : bool;
}

let dirs_mu = Mutex.create ()
let dirs : (string, dir_state) Hashtbl.t = Hashtbl.create 4

let dir_state dir =
  Mutex.protect dirs_mu (fun () ->
      match Hashtbl.find_opt dirs dir with
      | Some d -> d
      | None ->
          let d =
            {
              d_mu = Mutex.create ();
              d_fd = None;
              d_mode = `Free;
              d_housekept = false;
            }
          in
          Hashtbl.add dirs dir d;
          d)

(* must hold [d.d_mu]; [None] when the lock file cannot even be created
   (a read-only directory, …) and the caller degrades *)
let lock_fd d dir =
  match d.d_fd with
  | Some _ as fd -> fd
  | None -> (
      let path = Filename.concat dir lock_file_name in
      match Unix.openfile path [ O_CREAT; O_RDWR; O_CLOEXEC ] 0o644 with
      | fd ->
          d.d_fd <- Some fd;
          Some fd
      | exception (Unix.Unix_error _ | Sys_error _) -> None)

let rec acquire ~shared d dir attempt =
  let outcome =
    Mutex.protect d.d_mu (fun () ->
        match (d.d_mode, shared) with
        | `Shared n, true ->
            d.d_mode <- `Shared (n + 1);
            `Ok
        | `Free, _ -> (
            match lock_fd d dir with
            | None -> `Fail
            | Some fd -> (
                let cmd = if shared then Unix.F_TRLOCK else Unix.F_TLOCK in
                match Unix.lockf fd cmd 0 with
                | () ->
                    d.d_mode <- (if shared then `Shared 1 else `Exclusive);
                    `Ok
                | exception Unix.Unix_error ((EAGAIN | EACCES | EINTR), _, _)
                  ->
                    `Busy
                | exception (Unix.Unix_error _ | Sys_error _) -> `Fail))
        | (`Shared _ | `Exclusive), _ -> `Busy)
  in
  match outcome with
  | `Ok -> true
  | `Fail -> false
  | `Busy when attempt >= 3 -> false
  | `Busy ->
      (* back off with the mutex released *)
      Unix.sleepf (0.002 *. float_of_int (1 lsl attempt));
      acquire ~shared d dir (attempt + 1)

let release d =
  Mutex.protect d.d_mu (fun () ->
      match d.d_mode with
      | `Shared n when n > 1 -> d.d_mode <- `Shared (n - 1)
      | `Free -> ()
      | `Shared _ | `Exclusive -> (
          d.d_mode <- `Free;
          match d.d_fd with
          | Some fd -> (
              try Unix.lockf fd Unix.F_ULOCK 0
              with Unix.Unix_error _ | Sys_error _ -> ())
          | None -> ()))

let with_lock ~shared dir f =
  let d = dir_state dir in
  if acquire ~shared d dir 0 then
    Some (Fun.protect ~finally:(fun () -> release d) f)
  else None

(* ---------- durable publish ----------

   tmp+rename is atomic against concurrent readers but not against
   machine crashes: without fsync the rename can reach disk before the
   temporary's data blocks, so a crash leaves a {e published} name over
   torn bytes.  So: write the temporary, fsync it, rename it into
   place, then fsync the directory so the new name itself survives.
   The [crash] fault site fires {e between} the steps, where a real
   crash would bite. *)

let fsync_enabled = Atomic.make true
let set_fsync on = Atomic.set fsync_enabled on

(* best-effort: some filesystems refuse it, and a lost directory entry
   is a cache miss, unlike torn contents under a published name *)
let fsync_dir dir =
  if Atomic.get fsync_enabled then
    match Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 with
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
    | exception (Unix.Unix_error _ | Sys_error _) -> ()

(* raises [Sys_error], the language of the retry loop *)
let durable_publish ~before_rename ~subject ~tmp ~final data =
  let crash point = Faults.maybe_crash ~subject:(subject ^ "@" ^ point) in
  try
    let fd =
      Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let n = String.length data in
        let off = ref 0 in
        while !off < n do
          off := !off + Unix.write_substring fd data !off (n - !off)
        done;
        crash "tmp-written";
        if Atomic.get fsync_enabled then Unix.fsync fd;
        crash "tmp-synced");
    before_rename ();
    Unix.rename tmp final;
    crash "renamed";
    fsync_dir (Filename.dirname final)
  with Unix.Unix_error (e, fn, _) ->
    raise
      (Sys_error (Printf.sprintf "%s %s: %s" fn tmp (Unix.error_message e)))

(* Publish [data] as [final] under the shared lock, [attempts] running
   the tries; on failure the temporary is removed and [false]
   returned. *)
let publish ~attempts ~before_rename ~subject dir final data =
  let tmp = tmp_name final in
  mkdir dir;
  match
    with_lock ~shared:true dir (fun () ->
        attempts (fun attempt ->
            durable_publish ~before_rename:(before_rename attempt) ~subject
              ~tmp ~final data))
  with
  | Some () -> true
  | None | (exception Sys_error _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      false

(* ---------- startup housekeeping ---------- *)

let sweep_orphans dir names =
  Array.iter
    (fun f ->
      if is_tmp_name f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    names

type recovery_stats = { rc_scanned : int; rc_quarantined : int }

(* Even with durable publish, a cache written by an older build, a
   --no-fsync run, or a filesystem that reorders rename and data writes
   can survive a crash with a published name over torn bytes.  Moving
   those aside means no consumer ever has to trust a post-crash cache.
   Unreadable files are left alone: their reads degrade to misses. *)
let recover_unlocked dir names =
  let scanned = ref 0 and quarantined = ref 0 in
  Array.iter
    (fun f ->
      if is_entry_name f then begin
        incr scanned;
        let path = Filename.concat dir f in
        match unframe (read_file path) with
        | _ -> ()
        | exception Corrupt ->
            (try Sys.rename path (path ^ quarantine_suffix)
             with Sys_error _ -> ());
            incr quarantined
        | exception Sys_error _ -> ()
      end)
    names;
  { rc_scanned = !scanned; rc_quarantined = !quarantined }

let recover dir =
  match
    with_lock ~shared:false dir (fun () ->
        Option.map (recover_unlocked dir) (readdir_sorted dir))
  with
  | Some (Some rc) -> rc
  | Some None | None -> { rc_scanned = 0; rc_quarantined = 0 }

(* Once per directory per process: a crash can only have been another
   process's, so the tiers opened after the first have nothing new to
   recover.  A busy lock postpones it to the next open. *)
let housekeep dir =
  let d = dir_state dir in
  if not d.d_housekept then
    ignore
      (with_lock ~shared:false dir (fun () ->
           Option.iter
             (fun names ->
               sweep_orphans dir names;
               ignore (recover_unlocked dir names);
               d.d_housekept <- true)
             (readdir_sorted dir)))

(* ---------- the memory LRU ----------

   A hash table onto the nodes of a doubly linked recency list: lookup
   with refresh, insert, and eviction of the least recently used entry
   are all O(1). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable newer : 'a node option;
  mutable older : 'a node option;
}

type 'a lru = {
  nodes : (string, 'a node) Hashtbl.t;
  capacity : int;
  mutable newest : 'a node option;
  mutable oldest : 'a node option;
}

let unlink l n =
  (match n.newer with
  | Some m -> m.older <- n.older
  | None -> l.newest <- n.older);
  (match n.older with
  | Some m -> m.newer <- n.newer
  | None -> l.oldest <- n.newer);
  n.newer <- None;
  n.older <- None

let push_newest l n =
  n.older <- l.newest;
  (match l.newest with
  | Some m -> m.newer <- Some n
  | None -> l.oldest <- Some n);
  l.newest <- Some n

let lru_find l k =
  Option.map
    (fun n ->
      unlink l n;
      push_newest l n;
      n.value)
    (Hashtbl.find_opt l.nodes k)

let lru_add l k v =
  match Hashtbl.find_opt l.nodes k with
  | Some n ->
      n.value <- v;
      unlink l n;
      push_newest l n
  | None ->
      (if Hashtbl.length l.nodes >= l.capacity then
         match l.oldest with
         | Some o ->
             unlink l o;
             Hashtbl.remove l.nodes o.key
         | None -> ());
      let n = { key = k; value = v; newer = None; older = None } in
      Hashtbl.replace l.nodes k n;
      push_newest l n

(* ---------- tiers ---------- *)

type origin = Memory | Disk

(* The counters are atomics, not under [mu]: disk I/O bumps them
   outside the lock. *)
type 'a t = {
  mu : Mutex.t;
  lru : 'a lru;
  disk : ('a tier * string) option;
  n_mem_hits : int Atomic.t;
  n_disk_hits : int Atomic.t;
  n_stores : int Atomic.t;
  n_corrupt : int Atomic.t;
  n_retries : int Atomic.t;
  n_io_failures : int Atomic.t;
}

let make ~capacity disk =
  let zero () = Atomic.make 0 in
  {
    mu = Mutex.create ();
    lru =
      {
        nodes = Hashtbl.create 64;
        capacity = max 1 capacity;
        newest = None;
        oldest = None;
      };
    disk;
    n_mem_hits = zero ();
    n_disk_hits = zero ();
    n_stores = zero ();
    n_corrupt = zero ();
    n_retries = zero ();
    n_io_failures = zero ();
  }

let create tier ~capacity ~dir =
  Option.iter housekeep dir;
  make ~capacity (Option.map (fun d -> (tier, d)) dir)

let memory ~capacity = make ~capacity None
let entry_path (tier, dir) k = Filename.concat dir (k ^ tier.suffix)
let backoff_s attempt = 0.0005 *. (4.0 ** float_of_int attempt)

(* Run [op attempt], retrying transient [Sys_error]s with bounded
   exponential backoff.  [op] gets the attempt number so injected
   faults re-roll per attempt.  A retry never sleeps past the caller's
   budget deadline, and none starts once it has passed: a slow disk
   must not make a budgeted request overrun its own timeout while
   asleep. *)
let with_io_retries t ~retries op =
  let rec go attempt =
    try op attempt
    with Sys_error _ as e when attempt < retries -> (
      match Limits.Budget.time_left_s () with
      | Some left when left <= 0.0 -> raise e
      | left ->
          Atomic.incr t.n_retries;
          let pause = backoff_s attempt in
          Unix.sleepf
            (match left with Some l -> Float.min pause l | None -> pause);
          go (attempt + 1))
  in
  go 0

(* the I/O fault sites, subject ["KEY#ATTEMPT"] *)
let inject faults ~site ~p k attempt =
  match faults with
  | Some f
    when Faults.fires f ~p:(p f) ~site
           ~subject:(Printf.sprintf "%s#%d" k attempt) ->
      raise (Sys_error ("injected " ^ site))
  | _ -> ()

(* A hit refreshes the file's mtime so {!gc}'s LRU-by-mtime eviction
   spares hot entries.  Memory hits too: they never read the file, and
   entries hot in memory would otherwise look cold to GC and go first,
   turning the next cold start into a full miss. *)
let touch path =
  try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ | Sys_error _ -> ()

let disk_read t ~faults ~retries disk k =
  let path = entry_path disk k in
  if not (Sys.file_exists path) then None
  else
    match
      with_io_retries t ~retries (fun attempt ->
          inject faults ~site:"disk_read" ~p:(fun f -> f.Faults.read_p) k
            attempt;
          read_file path)
    with
    | exception Sys_error _ ->
        Atomic.incr t.n_io_failures;
        None
    | data -> (
        match decode (fst disk) data with
        | v ->
            touch path;
            Some v
        | exception Corrupt ->
            (* removed so the fresh value can be rewritten cleanly *)
            Atomic.incr t.n_corrupt;
            (try Sys.remove path with Sys_error _ -> ());
            None)

let find t ~faults ~retries k =
  match Mutex.protect t.mu (fun () -> lru_find t.lru k) with
  | Some v ->
      Atomic.incr t.n_mem_hits;
      Option.iter (fun disk -> touch (entry_path disk k)) t.disk;
      Some (v, Memory)
  | None -> (
      match Option.bind t.disk (fun d -> disk_read t ~faults ~retries d k) with
      | Some v ->
          Atomic.incr t.n_disk_hits;
          Mutex.protect t.mu (fun () -> lru_add t.lru k v);
          Some (v, Disk)
      | None -> None)

let add t ~faults ~retries k v =
  Atomic.incr t.n_stores;
  Mutex.protect t.mu (fun () -> lru_add t.lru k v);
  match t.disk with
  | None -> ()
  | Some ((tier, dir) as disk) ->
      let data = frame ~magic:tier.magic (Marshal.to_string v []) in
      let data =
        match faults with
        | Some f
          when Faults.fires f ~p:f.Faults.corrupt_p ~site:"corrupt" ~subject:k
          ->
            (* readable, wrong checksum: the next read must detect it *)
            String.sub data 0 (String.length data / 2)
        | _ -> data
      in
      let attempts op =
        with_io_retries t ~retries (fun attempt ->
            inject faults ~site:"disk_write" ~p:(fun f -> f.Faults.write_p) k
              attempt;
            op attempt)
      in
      let before_rename attempt () =
        inject faults ~site:"rename" ~p:(fun f -> f.Faults.rename_p) k attempt
      in
      if
        not
          (publish ~attempts ~before_rename ~subject:k dir (entry_path disk k)
             data)
      then Atomic.incr t.n_io_failures

type counters = {
  mem_hits : int;
  disk_hits : int;
  stores : int;
  corrupt : int;
  io_retries : int;
  io_failures : int;
}

let counters t =
  let g = Atomic.get in
  {
    mem_hits = g t.n_mem_hits;
    disk_hits = g t.n_disk_hits;
    stores = g t.n_stores;
    corrupt = g t.n_corrupt;
    io_retries = g t.n_retries;
    io_failures = g t.n_io_failures;
  }

(* ---------- eviction ---------- *)

(* Size-capped GC over the entries of every tier: oldest mtime first
   (hits touch mtime, so this is LRU) until under the cap.  Removals
   are atomic; a file vanishing meanwhile is tolerated.  A busy lock
   skips the pass: eviction is housekeeping the next run can do. *)
let gc_unlocked ~max_bytes dir names =
  sweep_orphans dir names;
  let files =
    Array.to_list names
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           if not (is_entry_name f) then None
           else
             match Unix.stat path with
             | st -> Some (path, st.Unix.st_mtime, st.Unix.st_size)
             | exception (Unix.Unix_error _ | Sys_error _) -> None)
    |> List.sort (fun (_, m1, _) (_, m2, _) -> compare m1 m2)
  in
  let live = ref (List.fold_left (fun a (_, _, sz) -> a + sz) 0 files) in
  let removed = ref 0 and freed = ref 0 in
  List.iter
    (fun (path, _, sz) ->
      if !live > max_bytes then
        match Sys.remove path with
        | () ->
            incr removed;
            freed := !freed + sz;
            live := !live - sz
        | exception Sys_error _ -> ())
    files;
  (!removed, !freed)

let gc ~max_bytes dir =
  match
    with_lock ~shared:false dir (fun () ->
        Option.map (gc_unlocked ~max_bytes dir) (readdir_sorted dir))
  with
  | Some (Some r) -> r
  | Some None | None -> (0, 0)

(* ---------- merge ---------- *)

type merge_stats = {
  mg_scanned : int;
  mg_copied : int;
  mg_present : int;
  mg_corrupt : int;
  mg_failed : int;
}

(* A union: entries are content-addressed, so a name already in [dst]
   holds the same bytes.  Each copy is verified first, so a damaged
   shard cache cannot spread corruption into a healthy one, and is
   published like a store, so a daemon serving from [dst] meanwhile
   never sees a torn entry. *)
let merge ~dst srcs =
  mkdir dst;
  let scanned = ref 0 and copied = ref 0 and present = ref 0 in
  let corrupt = ref 0 and failed = ref 0 in
  let copy src f =
    incr scanned;
    let target = Filename.concat dst f in
    if Sys.file_exists target then incr present
    else
      match read_file (Filename.concat src f) with
      | exception Sys_error _ -> incr failed
      | data -> (
          match unframe data with
          | exception Corrupt -> incr corrupt
          | _ ->
              if
                publish ~attempts:(fun op -> op 0)
                  ~before_rename:(fun _ () -> ())
                  ~subject:f dst target data
              then incr copied
              else incr failed)
  in
  List.iter
    (fun src ->
      match readdir_sorted src with
      | None -> incr failed
      | Some names ->
          Array.iter (fun f -> if is_entry_name f then copy src f) names)
    srcs;
  {
    mg_scanned = !scanned;
    mg_copied = !copied;
    mg_present = !present;
    mg_corrupt = !corrupt;
    mg_failed = !failed;
  }
