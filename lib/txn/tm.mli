(** Transaction manager: transaction lifecycle and atomic commitment.

    Each node runs one TM. A transaction collects {e participants} (resource
    managers, local or remote proxies). Commit uses:

    - nothing at all for read-only transactions,
    - one-phase commit when a single participant did work,
    - presumed-abort two-phase commit otherwise: the only forced coordinator
      write is the commit decision; a crash before that point aborts the
      transaction implicitly, and in-doubt participants that cannot find a
      logged decision are told to abort.

    The two phases run concurrently across participants. Every
    participant's prepare is issued at once and the coordinator joins them
    before deciding; likewise every commit delivery. Each call but the
    first runs in a fiber forked into the caller's node group under the
    name ["tm.phase"], so a node crash kills the phase fibers with their
    coordinator; the first runs inline. Overlapped forces on one device
    share group-commit batches, and a remote participant's round trip
    overlaps the local forces. Outside a fiber the calls run one after
    another.

    A [No] vote (or an unreachable participant) still aborts every
    participant. All prepares run to completion even after a [No], so a
    participant that voted yes is prepared when the abort reaches it;
    aborts are idempotent and resolve it. A crash while prepares are in
    flight leaves no decision: prepared participants find none and
    resolve presumed-abort. A crash while commit deliveries are in flight
    leaves the decision pending, and recovery redelivers to every
    participant it names, acknowledged or not (a repeated commit is
    acknowledged).

    The coordinator log also drives {e commit redelivery}: once a commit
    decision is logged, delivery to every participant is retried (across
    coordinator restarts, via {!set_resolver} + {!recover_pending}) until
    all have acknowledged, after which an End record retires the
    transaction.

    The log is checkpointed ({!checkpoint}, {!maybe_checkpoint}; a site's
    janitor calls the latter), so it stays proportional to the
    transactions in flight rather than to the node's history. The
    snapshot holds the incarnation count and every commit decision a crash
    must still find: the unacknowledged ones, with the participants still
    to be told, and those whose record is appended but whose force has not
    returned yet. The second kind is what lets the TM meet
    [Wal.checkpoint]'s contract that a snapshot covers every appended
    record. Checkpointing never yields. *)

type t

type outcome = Committed | Aborted

type participant = {
  part_name : string;  (** Stable name, resolvable after a restart. *)
  p_prepare : Txid.t -> coordinator:string -> bool;
      (** Force a yes-vote; [false] for a no-vote or an unreachable RM. *)
  p_commit : Txid.t -> bool;
      (** Deliver the commit decision; [true] once durably applied. *)
  p_abort : Txid.t -> unit;  (** Best-effort abort notice. *)
  p_one_phase : Txid.t -> bool;  (** Single-participant fast path. *)
  p_has_work : Txid.t -> bool;
      (** Whether the RM buffered any update for this transaction. Workless
          participants are excused from commitment with an abort notice
          (which only releases their read locks), so a transaction that
          wrote at one RM and only read at others still commits one-phase. *)
  p_is_local : bool;
      (** Whether the RM is co-located with the coordinator. The one-phase
          fast path applies only to a single {e local} participant: a lone
          remote participant still gets a logged decision, because a lost
          acknowledgement would otherwise leave its outcome unknowable. *)
}

type txn
(** An open transaction handle. *)

val open_tm :
  ?commit_policy:Rrq_wal.Group_commit.policy ->
  Rrq_storage.Disk.t ->
  name:string ->
  t
(** Open the TM named [name] (the coordinator identity participants will
    query), recovering its decision log and bumping its incarnation.
    [commit_policy] (default [Immediate]) selects how decision-record
    forces are batched; see {!Rrq_wal.Group_commit}. *)

val name : t -> string

val begin_txn : t -> txn
val txn_id : txn -> Txid.t

val join : txn -> participant -> unit
(** Enlist a participant (deduplicated by [part_name]). *)

val on_commit : txn -> (unit -> unit) -> unit
(** Hook run once, just after the transaction commits. *)

val on_abort : txn -> (unit -> unit) -> unit
(** Hook run once, just after the transaction aborts. *)

val commit : t -> txn -> outcome
(** Run the commitment protocol. Returns [Aborted] if any participant voted
    no or was unreachable during voting. Must be called from a fiber. *)

val abort : t -> txn -> unit
(** Abort an active transaction. Idempotent. *)

val force_abort : t -> Txid.t -> bool
(** Abort a live transaction by id, from outside its owning fiber — the
    cancellation path (paper §7: [Kill_element] aborts the dequeuer).
    The owner's eventual [commit] returns [Aborted] and re-notifies
    participants so any locks it acquired afterwards are released. Returns
    [false] if the transaction is unknown or already finished. *)

val is_active : txn -> bool

val decision : t -> Txid.t -> [ `Committed | `Aborted | `Pending ]
(** Answer an in-doubt participant: [`Committed] if a commit decision is
    logged and not yet retired, [`Pending] while the transaction is still
    deciding, [`Aborted] otherwise (presumed abort). *)

val set_resolver : t -> (string -> participant option) -> unit
(** How to reconstruct participant proxies by name after a restart. *)

val recover_pending : t -> unit
(** Spawn redelivery fibers for logged-but-unretired commit decisions.
    Call from a fiber, after {!set_resolver}. *)

val checkpoint : t -> unit
(** Snapshot the decision table and truncate the log (see above). *)

val maybe_checkpoint : t -> every:int -> unit
(** {!checkpoint} once at least [every] records were appended since the
    last one. *)

val live_log_bytes : t -> int
(** Durable bytes in the decision log's live segments. *)

val pending_decisions : t -> Txid.t list
(** Commit decisions not yet acknowledged by all participants. *)

val stats : t -> int * int
(** (committed, aborted) counts for this incarnation. *)

(** {1 Replication hooks (primary-backup WAL shipping)} *)

val group_commit : t -> Rrq_wal.Group_commit.t
(** The commit-point batcher, so a replication layer can ship the TM's
    decision log ({!Rrq_wal.Group_commit.set_shipper}). *)

val shipped_decision : string -> (Txid.t * string list) option
(** Decode one shipped TM log record: [Some (id, participants)] if it is a
    commit-decision record (under presumed abort only commit decisions are
    logged), [None] for bookkeeping records (incarnation, end) or
    undecodable input. The backup keeps these ({!Shipped_decisions}) to
    resolve in-doubt RM entries at promotion. *)
