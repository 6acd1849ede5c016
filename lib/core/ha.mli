(** Highly-available queues: a primary-backup repository pair built from
    WAL shipping (paper §11's replicated queues as a full role
    protocol).

    The {e primary} runs the normal site stack and ships every sealed WAL
    batch of its three recoverable components (TM, QM, KV) to the {e
    standby} over the network, reusing {!Rrq_wal.Group_commit}'s
    leader/follower machinery: in [Sync] mode a commit-point force does not
    return until the backup has acknowledged the batch — the replication
    analogue of the durability-before-reply rule — while [Lagged d] drains
    retained records every [d] seconds and releases replies speculatively
    (the window the failover test campaign probes).

    The {e standby} appends shipped QM/KV records into its own logs and
    replays them into memory at once (warm by construction); shipped TM
    decision records land in a separate [tmship] log that doubles as the
    promotion-time outcome table. A standby rejects clerk-facing requests
    ({!Site.set_standby}), so clerks fail over by rotation.

    {b Failover}: the standby heartbeats the primary; after [miss_limit]
    consecutive misses plus one confirmation probe it promotes — durably
    flips its role file (atomic, no intervening yield), resolves shipped
    in-doubt transactions from the shipped decision stream (presumed abort
    for prepares whose decision never arrived: the primary ships the
    decision before delivering any participant commit), bumps the QM
    incarnation so fresh eids and auto-txids cannot collide with the old
    primary's, aliases the dead primary's node name so in-flight replies
    land locally, opens the gates and starts serving. A primary that lost
    its peer degrades to standalone and periodically retries; the link is
    re-established with a full snapshot resync. A restarting ex-primary
    stays gated until it has asked the peer's role: it demotes itself if
    the peer meanwhile promoted (higher epoch), which makes double
    failover (back onto the recovered ex-primary) work.

    Crash sites for the failover campaign: ["ship.sent"] (backup holds the
    batch, primary about to continue), ["ship.applied"] (batch durable on
    the backup, ack in flight), ["ha.heartbeat_miss"] (takeover decision
    made), ["ha.promote"] (promotion underway). *)

type stream = S_tm | S_qm | S_kv

val stream_to_string : stream -> string

type role = Primary | Standby

val role_to_string : role -> string

type mode =
  | Sync  (** Commit forces gate on the backup's acknowledgement. *)
  | Lagged of float
      (** Ship retained records every [d] seconds; replies are speculative
          up to one lag window. *)

type t

val attach :
  ?mode:mode ->
  ?heartbeat_every:float ->
  ?miss_limit:int ->
  ?ship_timeout:float ->
  ?cold:bool ->
  ?replay_bytes_per_sec:float ->
  ?on_serving:(t -> unit) ->
  Site.t ->
  peer:string ->
  role:role ->
  t
(** Attach the HA role protocol to a site (defaults: [Sync] mode,
    heartbeat every 0.25s, 3 misses, 2.0s ship timeout, warm standby).
    Registers a boot hook, so the role (read back from the durable role
    file) survives crash/restart. [on_serving] runs each time this node
    assumes serving-primary duty — boot as primary, or promotion — and is
    where the caller starts its servers ({!Server.start_here}): servers
    must run only on the serving node. [cold] models a standby that
    stores but does not replay the shipped log; promotion then pays a
    replay scan at [replay_bytes_per_sec] (default 256 MiB/s), the knob
    behind benchmark B15's warm-vs-cold comparison. *)

val site : t -> Site.t
val peer : t -> string
val role : t -> role
val epoch : t -> int
(** Incremented durably at every promotion; stale-epoch ship traffic is
    rejected, which is how a deposed primary learns of its deposition. *)

val is_serving : t -> bool
(** Primary role with the gates open (rejoin check passed / promoted). *)

val shipping : t -> bool
(** The primary's link is up: shippers installed, peer synced or syncing. *)

val pending_ship : t -> int
(** Durable-but-unshipped records across the three streams (the exposure
    window of [Lagged] mode; 0 in steady-state [Sync] mode). *)

val failovers : t -> int
val degrades : t -> int
val resyncs : t -> int
val ship_batches : t -> int

val applied_bytes : t -> int
(** Standby side: shipped bytes applied since the last snapshot install. *)

val last_promote_at : t -> float
(** Virtual time of the most recent promotion on this node (0 if none). *)
