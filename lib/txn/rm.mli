(** Resource-manager base: deferred-update transactional state with
    redo-only logging, two-phase-commit participation and checkpointed
    recovery.

    Both resource managers of a site, the queue manager
    ({!Rrq_qm.Qm}) and the KV store ({!Rrq_kvdb.Kvdb}), are clients of
    this functor. Each supplies its state type, its redo-record type and
    the hooks below; this module is the only code that frames, replays,
    snapshots, checkpoints and standby-applies their log records:

    - transactions buffer redo records in a private workspace;
    - [commit_one_phase] durably logs the workspace then applies it;
    - a 2PC prepare durably logs the workspace as in-doubt (with its
      coordinator's name) and keeps it; commit or abort resolves it;
    - recovery replays the log over the latest checkpoint snapshot and
      rebuilds the in-doubt table, invoking [relock] so prepared
      transactions' locks are re-acquired before new work starts
      (paper §5: an aborted/restarted server must find requests back in the
      queue; a prepared dequeue must stay invisible).

    Every record is [kind | txid option | coordinator | redo list]; the
    kinds are one-phase commit (1), prepare (2), commit (3), abort (4) and
    an update outside any transaction (5).

    Uncommitted workspaces are volatile by design: a crash aborts them. *)

module type STATE = sig
  type state
  (** In-memory state of the resource manager. *)

  type redo
  (** One logical update; must be re-applicable from its encoding. *)

  type pending
  (** Work a commit owes stable storage after its log force (the queue
      manager's in-place page writes); [unit] for an RM with none. *)

  val log_suffix : string
  (** The RM's log is named [name ^ log_suffix]. *)

  val encode_redo : Rrq_util.Codec.encoder -> redo -> unit
  val decode_redo : Rrq_util.Codec.decoder -> redo

  val logged : state -> redo -> bool
  (** Whether an update is written to the log. An unlogged update is
      applied at commit like any other, costs no record and no force, and
      is gone after a crash (the queue manager's volatile queues). *)

  val apply : state -> live:bool -> redo -> unit
  (** Apply an update. Must be deterministic. [live] is [false] when
      recovery or a standby replays the log, so effects that belong to
      the original run only (alerts, operation counters) stay off. *)

  val pending : state -> redo list -> pending
  (** Called on a commit's updates before they are applied. *)

  val after_force : state -> pending -> unit
  (** Called once the commit's log force has returned: writes that must
      follow the write-ahead force. *)

  val compensate : state -> redo list -> redo list
  (** Called on an aborted transaction's updates (oldest first): undo
      their in-memory effects and return the updates the abort itself
      makes durable (the queue manager's retry bump and error-queue move,
      §4.2). They are logged and applied under the abort's single force. *)

  val clock : state -> float
  (** Timestamp of workspace activity, for {!Make.idle_workspaces}. *)

  val snapshot : Rrq_util.Codec.encoder -> state -> unit

  val restore : state -> Rrq_util.Codec.decoder -> unit
  (** Replace the state's contents with a {!snapshot} image, in place:
      everything else holding the state keeps seeing it. *)

  val relock : state -> Txid.t -> redo list -> unit
  (** Re-assert whatever volatile exclusions an in-doubt transaction's
      pending updates imply (element locks, key locks). Called once per
      prepared transaction during recovery. *)
end

(** The surface both resource managers re-export unchanged
    ([include Rrq_txn.Rm.SHARED with type t := t]). *)
module type SHARED = sig
  type t

  val in_doubt : t -> (Txid.t * string) list
  (** Prepared-but-unresolved transactions with their coordinators
      (populated by recovery; the host node runs a resolver over these). *)

  val is_prepared : t -> Txid.t -> bool
  (** The transaction is prepared here and not yet resolved. *)

  val checkpoint : t -> unit
  (** Snapshot state + in-doubt table; truncate the log. *)

  val maybe_checkpoint : t -> every:int -> unit
  (** Checkpoint when at least [every] records accumulated since the last
      one. *)

  val live_log_bytes : t -> int

  (** {1 Warm-standby replication}

      Primary-backup WAL shipping ({!Rrq_core.Ha}). The primary ships its
      records through {!Rrq_wal.Group_commit.set_shipper} on
      {!group_commit}. The backup appends each shipped record verbatim
      into its own log (so a backup crash recovers through the native
      path) and replays it into memory at once, so the standby is warm by
      construction. A standby runs no competing transactions: no locks are
      re-asserted, and the promotion protocol, not this module, resolves
      the in-doubt entries shipped prepares leave behind. *)

  val group_commit : t -> Rrq_wal.Group_commit.t
  (** The commit-point batcher, where the primary installs its shipper. *)

  val standby_apply : t -> string -> Txid.t option
  (** Append one shipped record to our own log and replay it into memory;
      returns the txid if the record was a 2PC commit. Not forced — call
      {!standby_force} at batch end, before acknowledging the batch to the
      primary. *)

  val standby_force : t -> unit

  val standby_install : t -> string -> unit
  (** Replace the whole state from a primary {!encode_snapshot} image
      (full resync after a gap or a role change) and restart our log from
      it. *)

  val encode_snapshot : t -> string
  (** The state + in-doubt table as one string — what {!standby_install}
      consumes on the peer, and what a checkpoint writes. *)
end

module Make (S : STATE) : sig
  type t

  include SHARED with type t := t

  val open_rm :
    ?commit_policy:Rrq_wal.Group_commit.policy ->
    Rrq_storage.Disk.t ->
    name:string ->
    S.state ->
    t
  (** Open the RM over a fresh state, running recovery against its WAL.
      [commit_policy] (default [Immediate]) selects how commit-point log
      forces are batched; see {!Rrq_wal.Group_commit}. *)

  val name : t -> string
  val state : t -> S.state

  val add_redo : t -> Txid.t -> S.redo -> unit
  (** Buffer an update in the transaction's workspace and stamp the
      workspace's activity time ({!S.clock}). The most recent workspace
      sits in a one-slot cache, so a single open transaction never pays a
      txid-keyed table lookup. *)

  val workspace : t -> Txid.t -> S.redo list
  (** Updates buffered so far, newest first (no copy). *)

  val has_workspace : t -> Txid.t -> bool

  val idle_workspaces : t -> before:float -> Txid.t list
  (** Open (unprepared) transactions whose last activity is older than
      [before]. *)

  val commit_one_phase : t -> Txid.t -> unit
  (** Log-force the workspace and apply it. Used when this RM is the only
      participant. No-op for an empty workspace. *)

  val abort : t -> Txid.t -> unit
  (** Discard the workspace or durably resolve the prepared transaction,
      logging {!S.compensate}'s updates under the same single force.
      Idempotent. *)

  val participant :
    t -> release:(S.state -> Txid.t -> unit) -> Tm.participant
  (** Enlist the RM in a transaction. [prepare] votes yes after durably
      recording the workspace's logged updates as in-doubt (trivially yes,
      recording nothing, for a read-only participant); [commit] applies and
      durably resolves an in-doubt transaction (idempotent); [one_phase]
      is {!commit_one_phase}; [abort] is {!abort}. [release] frees the
      transaction's locks after each of the last three. *)

  val apply_now : t -> S.redo list -> unit
  (** Durably log and apply updates outside any transaction (auto-commit
      DDL, registrations, incarnation bumps). *)
end
