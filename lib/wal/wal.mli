(** Write-ahead log over {!Rrq_storage.Disk}.

    The WAL stores opaque record payloads framed with a length and an
    FNV-1a checksum. Recovery scans segments in order and stops at the first
    truncated or corrupt frame — so a torn tail lost in a crash silently
    truncates the log to its last complete record, which is exactly the
    contract resource managers rely on.

    [checkpoint] atomically installs a state snapshot and starts a fresh
    segment; older segments are deleted. Re-opening returns the latest
    snapshot plus every record logged after it. *)

type t

type recovered = {
  snapshot : string option;  (** Latest checkpoint snapshot, if any. *)
  records : string list;  (** Payloads appended after that snapshot, oldest first. *)
}

val open_log : Rrq_storage.Disk.t -> name:string -> t * recovered
(** Open (or create) the log called [name], recovering its contents. *)

val disk : t -> Rrq_storage.Disk.t
(** The disk holding this log (its device model governs force cost). *)

val name : t -> string
(** The log's base name, as passed to {!open_log} — used to key metrics
    and trace events. *)

val encoder : t -> Rrq_util.Codec.encoder
(** The log's scratch record encoder, reset to empty. Every record a
    resource manager writes is encoded here and handed to {!append_enc}
    without yielding in between; the buffer is reused by the next call, so
    a warmed log encodes records without allocating. *)

val append_enc : t -> Rrq_util.Codec.encoder -> unit
(** Buffer the encoder's contents as one record at the log tail, framed in
    place on the disk's pending bytes as [len | frame64 | payload] — no
    intermediate string. Not durable until {!sync}. *)

val append : t -> string -> unit
(** [append_enc] for a record that already exists as a string (a shipped
    record being applied on a standby); the bytes on disk are identical. *)

val sync : t -> unit
(** Force all buffered records to stable storage. On success this advances
    {!durable_lsn} to {!appended_lsn}; if the disk is dead (crash-point
    injection) the durable LSN stays put. *)

val appended_lsn : t -> int
(** Records appended this incarnation (durable or not). *)

val durable_lsn : t -> int
(** Records of this incarnation known forced to stable storage. A commit
    whose last record has LSN [<= durable_lsn] may be acknowledged. *)

val append_sync : t -> string -> unit
(** [append] then [sync] — the force-write used at commit points. *)

val checkpoint : t -> string -> unit
(** Durably and atomically install [snapshot] and truncate the log: records
    appended before this call will not be replayed by future recoveries. *)

val records_since_checkpoint : t -> int
(** Count of records appended (not necessarily synced) since the last
    checkpoint, used by checkpoint policies. *)

val live_log_bytes : t -> int
(** Durable bytes in the current (post-checkpoint) segments. *)
