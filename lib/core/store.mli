(** The content-addressed cache store under every cache tier: Batch's
    models ([.model]) and per-function parts ([.fnmodel]), and
    {!Model_compile}'s compiled programs ([.prog]).  This module alone
    knows how an entry is named, framed, published, found, evicted and
    recovered.

    {b On disk.}  An entry is the file [<key><suffix>] in a cache
    directory, where [key] is a hex digest and [suffix] is one of
    [.model], [.fnmodel] and [.prog].  Its bytes are the frame
    [<magic><md5 of body><body>], where [body] is the marshalled value
    and [magic] is the tier's own, ending in ['\n'].  Recovery, {!gc}
    and {!merge} recognise entries by that name shape and verify any
    frame without knowing the tier; they leave every other file in the
    directory alone.  A reader still checks its own tier's magic and
    [validate] before it trusts the value.

    {b Temporaries.}  An entry is written to
    [<entry>.tmp.<pid>.<thread id>] and renamed into place, so no two
    writers in any two processes or threads share a temporary.  An
    entry name followed by [.tmp.] is an orphan once its writer is
    gone.

    {b Sharing a directory.}  Writers hold the advisory lock on
    {!lock_file_name} shared for the write+rename window; the orphan
    sweep, the recovery scan and {!gc} hold it exclusively.  The lock is
    non-blocking with bounded retry, and a busy lock degrades the
    operation (a store is dropped, a sweep or GC is skipped): it never
    blocks or fails a caller. *)

(** {1 Tiers} *)

type 'a tier
(** A static description of one kind of entry. *)

val tier : suffix:string -> magic:string -> validate:('a -> bool) -> 'a tier
(** [validate] screens a checksum-verified, unmarshalled value before a
    reader trusts it; a rejected value counts as a corrupt entry.
    Raises [Invalid_argument] for a [suffix] other than the three
    above. *)

type 'a t
(** A live tier: an exact LRU in memory, plus the disk entries of one
    directory when it has one.  Thread- and domain-safe. *)

val create : 'a tier -> capacity:int -> dir:string option -> 'a t
(** [capacity] bounds the memory LRU (at least 1).  The first tier a
    process opens on an existing directory runs the startup
    housekeeping there: the orphan sweep and the {!recover} scan, under
    the exclusive lock.  The directory is created on the first store. *)

val memory : capacity:int -> 'a t
(** A memory-only tier. *)

type origin = Memory | Disk

val find :
  'a t ->
  faults:Faults.t option ->
  retries:int ->
  string ->
  ('a * origin) option
(** Memory first, then disk; a disk hit is promoted into memory.  Any
    hit refreshes the entry's recency in memory and its file's mtime, so
    {!gc} evicts by use.  A corrupt entry is counted and removed and
    reads as a miss; a read still failing after [retries] retries is
    counted and reads as a miss.  [faults] injects the [disk_read] site
    with subject ["KEY#ATTEMPT"]. *)

val add :
  'a t -> faults:Faults.t option -> retries:int -> string -> 'a -> unit
(** Insert into memory (evicting the least recently used entry at
    capacity) and publish to disk.  Publishing never raises: a failure
    is counted and the entry stays memory-only.  [faults] injects the
    [corrupt] site (subject ["KEY"], a truncated frame is published) and
    the [disk_write] and [rename] sites (subject ["KEY#ATTEMPT"]).  The
    {!Faults.set_crash} site fires with subjects ["KEY@tmp-written"],
    ["KEY@tmp-synced"] and ["KEY@renamed"]. *)

type counters = {
  mem_hits : int;
  disk_hits : int;
  stores : int;  (** {!add}s *)
  corrupt : int;  (** corrupt entries detected on read *)
  io_retries : int;  (** disk I/O attempts retried *)
  io_failures : int;  (** disk I/O given up on, stores dropped *)
}

val counters : 'a t -> counters
(** Cumulative over the tier's lifetime. *)

(** {1 Directories} *)

val lock_file_name : string
(** [".lock"], the advisory lock file inside a cache directory. *)

val set_fsync : bool -> unit
(** Process-wide durability switch (default on).  When on, a publish
    fsyncs the temporary before the rename and the directory after it,
    so a machine crash cannot leave a published name over torn bytes.
    Off, the checksum and {!recover} are the only defence. *)

type recovery_stats = { rc_scanned : int; rc_quarantined : int }

val recover : string -> recovery_stats
(** Re-verify the frame of every entry in a directory and rename torn
    ones to [NAME.quarantined], a name no reader or sweeper matches.
    Runs under the exclusive lock; a busy lock postpones the scan. *)

val gc : max_bytes:int -> string -> int * int
(** Sweep orphan temporaries and, while the entries of every tier
    exceed [max_bytes], remove the oldest by mtime.  Returns
    [(entries_removed, bytes_freed)]; [(0, 0)] when the exclusive lock
    is busy. *)

type merge_stats = {
  mg_scanned : int;  (** entries examined across all sources *)
  mg_copied : int;
  mg_present : int;  (** already in the destination, skipped *)
  mg_corrupt : int;  (** failed frame verification, not copied *)
  mg_failed : int;  (** I/O or lock failures (the merge keeps going) *)
}

val merge : dst:string -> string list -> merge_stats
(** Union the entries of every tier of the source directories into
    [dst] (created if missing).  Names are content keys, so a name
    already in [dst] is skipped; every copy is frame-verified and
    published like a store.  Never raises. *)
