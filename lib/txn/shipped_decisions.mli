(** The HA standby's store of shipped commit decisions.

    A primary ships its TM decision log to the standby. At promotion the
    standby must answer, for each transaction its own participants hold
    prepared on the primary's behalf: was the commit decided? This store
    keeps exactly what that question needs, in its own WAL so a standby
    crash recovers it natively.

    {b What it keeps.} For each shipped commit decision, only the
    participants that [held] names: those local to the pair that hold the
    transaction prepared on the standby. A decision whose participants all
    live elsewhere is not kept at all.

    {b When it forgets.} A participant leaves its entry when the standby
    applies that participant's shipped commit record ({!forget}); the entry
    is dropped when it is empty. Under synchronous shipping this is exact:
    a participant's prepare is shipped before the decision is even
    appended, and its commit is shipped after the decision, so a
    participant that does not hold the transaction prepared when the
    decision arrives can never be in doubt about it later.

    The WAL holds the shipped records verbatim and is checkpointed
    ({!maybe_checkpoint}), so both the table and the log stay proportional
    to the decisions still awaiting a participant's commit. Forgetting is
    not logged: reopening passes every recovered entry through [held]
    again, which drops the ones whose commits were applied before the
    crash. *)

type t

val open_store :
  Rrq_storage.Disk.t -> name:string -> held:(Txid.t -> string -> bool) -> t
(** Open (or create) the store whose log is called [name], recovering its
    snapshot and log tail. [held id p] says whether participant [p] must be
    kept for decision [id]; it is consulted for every recovered entry and
    every decision {!append}ed later. *)

val append : t -> string -> unit
(** Log one shipped TM record verbatim (not durable until {!sync}); a
    commit decision also enters the table with its [held] participants. *)

val sync : t -> unit
(** Force the records appended so far. *)

val forget : t -> Txid.t -> string -> unit
(** Participant [p] applied its commit of [id]: drop it from the entry. *)

val mem : t -> Txid.t -> bool
(** A commit decision for [id] is kept: some participant still holds it. *)

val reset : t -> unit
(** Empty the store and its log (the standby installed a full snapshot). *)

val maybe_checkpoint : t -> every:int -> unit
(** Snapshot the table and truncate the log once at least [every] records
    were logged since the last checkpoint. Never yields. *)

val applied_bytes : t -> int
(** Bytes of shipped TM records logged since the last {!reset}, including
    records a checkpoint has since truncated (the cold-standby replay
    model charges for all of them). *)

val size : t -> int
(** Decisions kept. *)
