(** Simulated crash-consistent stable storage.

    A disk holds named append-only files plus atomically-replaceable files
    (used for checkpoints). Appended bytes sit in a volatile buffer until
    [sync]; {!crash} discards everything unsynced. With [torn_writes]
    enabled, a crash may instead retain a prefix of the unsynced tail of the
    file most recently appended to — modeling a partially flushed block —
    which the WAL detects via per-record checksums.

    This is the substitution for real disks: it preserves the property the
    paper's recovery arguments depend on, namely that exactly the
    force-written data survives a failure.

    A file keeps its bytes in fixed 4 KiB chunks ({!Rrq_util.Chunked}):
    the synced prefix and the unsynced tail share one store, split at the
    durable length. Growth allocates a chunk and copies nothing, so a file
    holds at most one chunk of slack; a sync moves the split point and a
    crash truncates to it. *)

type t
(** A disk (one per simulated node). *)

type file
(** Handle to an append-only file on some disk. *)

val create :
  ?torn_writes:bool -> ?rng:Rrq_util.Rng.t -> ?sync_latency:float -> string -> t
(** Disk named [name] (for diagnostics). [torn_writes] defaults to false.
    [sync_latency] (default 0.0) is the virtual time one flush occupies the
    device — see {!reserve_sync}. *)

val name : t -> string

(** {1 Latency model}

    The disk itself is synchronous (it must stay usable outside the
    simulator), but it carries a cost model: one flush occupies the device
    for [sync_latency] virtual seconds, and flushes serialize. Fiber code
    that forces the log calls [reserve_sync] with the current virtual time,
    sleeps for the returned duration, then issues the real {!sync} — so
    concurrent committers queue on the device exactly as they would on a
    real WAL disk, which is what makes group commit measurable. *)

val sync_latency : t -> float
(** Configured per-flush device occupancy (0.0 = free syncs). *)

val reserve_sync : t -> now:float -> float
(** Claim the next device slot for a flush requested at virtual time [now];
    returns how long the requester must wait until its flush completes. *)

val open_file : t -> string -> file
(** Open (creating if absent) an append-only file. Contents persist across
    re-opens; re-opening returns a handle to the same state. *)

val append : file -> string -> unit
(** Buffer bytes at the end of the file (volatile until [sync]). *)

val append_i64 : file -> int64 -> unit
(** Buffer one little-endian 64-bit integer ([append] without the
    intermediate string; the WAL framing layer writes headers this way). *)

val append_sub : file -> Bytes.t -> pos:int -> len:int -> unit
(** Buffer [len] bytes of [buf] starting at [pos] ([append] without
    copying through a string; pairs with [Codec.bytes]). *)

val read_page : file -> Bytes.t -> unit
(** Copy the file's durable contents (up to [Bytes.length page]) into
    [page] — the read half of a page-granular read-modify-write. Allocates
    nothing. *)

val write_page : file -> Bytes.t -> unit
(** Durably overwrite the file's entire contents with one page image — the
    in-place update a disk-resident structure (e.g. a stable queue page)
    pays per modification, in contrast to the append-only log files. Does
    NOT count as a sync: crash countdowns ({!kill_after_syncs}) tick on
    {!sync} only. On a dead disk the write is silently lost, like any
    unsynced append. A page of up to one chunk (4096 bytes) is rewritten in
    place and allocates nothing. *)

val sync : file -> unit
(** Force all buffered bytes of this file to durable storage. *)

val sync_all : t -> unit
(** [sync] every file on the disk. *)

val read : file -> string
(** Contents including unsynced bytes (what a live process reads back). *)

val read_durable : file -> string
(** Contents that would survive a crash right now. *)

val size : file -> int
val durable_size : file -> int

val replace_atomic : t -> string -> string -> unit
(** Durably replace the full contents of a (possibly new) file, atomically —
    the write-temp-then-rename idiom used for checkpoints. Counts as one
    sync. *)

val read_file : t -> string -> string option
(** Durable-plus-buffered contents of a named file, if it exists. *)

val file_size : t -> string -> int option
(** Size (durable + buffered) of a named file without reading its contents
    — the stat-style metadata lookup. *)

val delete : t -> string -> unit
(** Durably remove a file (log-segment garbage collection). *)

val exists : t -> string -> bool
val list_files : t -> string list

val crash : t -> unit
(** Drop all unsynced bytes (or keep a torn prefix, see above). Open handles
    remain usable — they model re-opened files after restart. *)

(** {1 Crash-point injection} *)

val kill_after_syncs : t -> int -> unit
(** Arm a crash trigger: after [n] further sync operations are {e about} to
    happen, the disk freezes — the triggering sync does not persist, all
    later writes and syncs are silently ignored (they never become
    durable), and durable contents stay exactly as they were. Used by the
    crash-point sweep tests to stop the world at every possible durability
    boundary. *)

val kill_now : t -> unit
(** Freeze the disk immediately: unsynced bytes are discarded and every
    later write or sync is silently ignored until {!revive} — the same
    terminal state as a fired {!kill_after_syncs} trigger. Used by crash
    actions armed at named crash sites ([Rrq_sim.Crashpoint]), where the
    fiber that reached the site keeps running until its next suspension
    point and must not produce durable effects in that window. *)

val revive : t -> unit
(** Clear the dead state (the "replacement hardware" for the next
    incarnation); durable contents are untouched. *)

val is_dead : t -> bool

(** {1 Accounting} *)

val synced_bytes : t -> int
(** Total bytes made durable so far. *)

val sync_count : t -> int
(** Number of sync operations (incl. atomic replaces). *)

val reset_counters : t -> unit
