(** Checkable scenarios: closed simulated worlds that run one fault plan to
    quiescence and audit themselves through the {!Audit} registry. *)

type outcome = {
  findings : Audit.finding list;  (** Empty iff every auditor passed. *)
  trace : Rrq_sim.Sched.decision array;
      (** The full scheduling-decision trace of the run (replayable when
          [trace_truncated] is false). *)
  trace_truncated : bool;
  requests : int;  (** Requests the clients attempted. *)
  replies : int;  (** Replies the clients actually received. *)
  virtual_time : float;  (** Virtual time at quiescence. *)
  disks : (string * int * int) list;
      (** Every node's [(name, Disk.sync_count, Disk.synced_bytes)] at
          quiescence, sites first, then the client node. *)
}

type t
(** A checkable scenario: a closed world, the fault space the explorer
    draws plans from, and the plan its crash-site sweeps run under. *)

val name : t -> string

val profile : t -> Plan.profile
(** Fault space the explorer draws plans from. *)

val with_checkpoint_every : int -> t -> t
(** The same scenario with every site's janitor checkpointing its logs
    after this many records (the site default is 500, which the small
    worlds never reach). A small cadence puts the checkpoint crash sites
    ([wal.ckpt:<node>.tmlog], [wal.ckpt:tmship], ...) on the sweep map. *)

val failed : outcome -> bool

val run : ?policy:Rrq_sim.Sched.policy -> t -> Plan.t -> outcome
(** Run one plan to quiescence and audit. [policy] overrides the plan's
    scheduling policy (used to re-run a schedule under [Replay] of a
    recorded trace). *)

val fingerprint : outcome -> string
(** Hex digest of everything a run determines: the decision trace, the
    findings, replies and requests, the virtual time and every node's
    disk sync counters. Two runs with equal fingerprints behaved
    identically, down to the bytes they forced. *)

val quickstart : t
(** The paper's System Model on one backend site: 2 correct clerks x 2
    tagged requests against a 2-thread counting server. Must satisfy every
    auditor under {e any} plan — a finding here is a protocol bug. *)

val quickstart_mm : t
(** {!quickstart} over a [Main_memory] request queue with adaptive group
    commit: element payload and queue order live purely in memory, only
    redo records hit the WAL, and recovery rebuilds queue state from the
    redo scan. Exactly-once must hold exactly as in the stable variant. *)

val ha : t
(** The HA pair ({!Rrq_core.Ha}): a primary and a warm standby joined by
    synchronous WAL shipping, 2 clerks (with backup rotation) x 2 requests
    against counting servers that run only on the serving node. The plan
    space kills the primary and partitions it from the client; exactly-once,
    conservation, reply-delivery, queue-integrity and no-in-doubt must hold
    through any failover the plan provokes. *)

val ha_lagged : t
(** The deliberately lag-buggy variant: shipping drains only once per
    second ([Lagged 1.0]), so replies are speculative. Fault-free it
    passes; a primary kill inside the lag window loses or duplicates a
    conversation, which the explorer must find and ddmin must shrink. *)

val sharded : t
(** Sharded multi-repository scale-out ({!Rrq_core.Shard}): three shard
    sites, each with its own WAL/TM/QM and counting server, 3 shard-aware
    clerks x 2 requests. Map v1 pins every client's request key onto
    shard0; an admin fiber installs v2 (pure hash placement) at t=1, so
    ownership of every key moves mid-run — stale clients get forwarded and
    piggyback-refreshed, retried operations at new owners trigger the
    registration pull, and servers finish requests with cross-shard 2PC
    reply enqueues. The plan space crashes any shard and partitions
    client/shard and shard/shard pairs (including mid-2PC); exactly-once,
    conservation summed across shards, queue-integrity and no-in-doubt
    must hold regardless. *)

val sharded_buggy : t
(** The designed misroute-during-map-change anomaly: forwarders strip
    registration tags, so a retried operation that crosses the map change
    through a stale pin executes a second untagged copy at the new owner.
    Passes fault-free; the explorer must find the duplicate and ddmin must
    shrink the plan. *)

val buggy_clerk : t
(** A deliberately broken client: untagged Sends and a blind re-Send on
    reply timeout with no rid check. Passes fault-free; duplicates requests
    under crashes and partitions that overlap its active window. The
    explorer must find (and the shrinker minimize) this violation. *)

val all : t list
val by_name : string -> t option

(** {1 Crash-site sweeps}

    Every world is instrumented with named crash sites
    ({!Rrq_sim.Crashpoint}) at WAL sync boundaries, 2PC decision points,
    clerk/server steps, and the HA and shard machinery. A sweep probes
    which sites a scenario reaches, then crashes it at each reach. *)

val crash_sites : t -> (string * int) list
(** Probe run: every crash site the scenario's world reaches, with hit
    counts — the enumeration domain for {!crash_at}. The probe plan is
    fault-free (FIFO) except for [ha] and [ha_lagged], whose probe kills
    the primary at t=2 so the heartbeat-miss/promote path is on the map:
    there the sites include [ship.sent], [ship.applied],
    [ha.heartbeat_miss] and [ha.promote]. In [sharded] they include the
    routing sites [shard.route:<node>], [shard.forward:<node>] and
    [shard.map_install:<node>]. *)

val crash_at :
  ?victim:string -> t -> site:string -> hit:int -> recover_after:float ->
  outcome
(** Re-run the probe plan with a one-shot kill of [victim] (a node name)
    armed at the [hit]-th reach of [site]: the victim's disk freezes
    immediately, a [Fault "crashpoint <site> kills <victim>"] note joins
    the decision trace, and the node restarts [recover_after] seconds
    later. The site may be reached on another node: killing the primary
    at [ship.applied] fires from the backup's apply fiber (death with the
    ack in flight), and a [shard.forward:*] site fires on the relaying
    node while the victim may be the owner it relays to. By default the
    victim is the crash node ({!Plan.profile}) the site name embeds (WAL,
    TM and routing site names embed their node), or else the profile's
    first crash node. *)

(** {1 Recorded runs}

    A run wrapped in an [Rrq_obs] session: metrics and the trace-event
    stream are captured, and {!Audit.exactly_once_trace} re-verifies
    exactly-once from the events alone. *)

type recorded = {
  rec_outcome : outcome;
      (** The scenario's outcome, with the trace auditor's findings
          appended. *)
  rec_metrics : Rrq_obs.Metrics.snapshot;  (** Metrics at quiescence. *)
  rec_trace : string;  (** The JSON-lines trace dump. *)
}

val run_recorded :
  ?policy:Rrq_sim.Sched.policy -> ?trace_capacity:int -> t -> Plan.t -> recorded
(** Run one plan under a fresh observability session ([trace_capacity]
    defaults to 262144 events — quickstart runs use a few thousand).
    Recording is disabled again on return. *)
