(** Umbrella module: one [open Rrq] (or [Rrq.] prefix) reaches the whole
    library with the names used throughout the documentation. The
    fine-grained libraries ([rrq_core], [rrq_qm], ...) remain available for
    selective linking. *)

(* simulation substrate *)
module Sched = Rrq_sim.Sched
module Crashpoint = Rrq_sim.Crashpoint
module Chan = Rrq_sim.Chan
module Ivar = Rrq_sim.Ivar
module Cond = Rrq_sim.Cond

(* storage and logging *)
module Disk = Rrq_storage.Disk
module Wal = Rrq_wal.Wal

(* transactions *)
module Txid = Rrq_txn.Txid
module Lock = Rrq_txn.Lock
module Tm = Rrq_txn.Tm
module Kvdb = Rrq_kvdb.Kvdb

(* the queue manager *)
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter

(* network *)
module Net = Rrq_net.Net

(* the paper's request-management protocols *)
module Site = Rrq_core.Site
module Envelope = Rrq_core.Envelope
module Tag = Rrq_core.Tag
module Clerk = Rrq_core.Clerk
module Client_fsm = Rrq_core.Client_fsm
module Session = Rrq_core.Session
module Server = Rrq_core.Server
module Pipeline = Rrq_core.Pipeline
module Interactive = Rrq_core.Interactive
module Forwarder = Rrq_core.Forwarder
module Autoscale = Rrq_core.Autoscale
module Stream_clerk = Rrq_core.Stream_clerk

(* observability *)
module Obs = Rrq_obs

(* deterministic simulation testing *)
module Audit = Rrq_check.Audit
module Plan = Rrq_check.Plan
module Scenario = Rrq_check.Scenario
module Explore = Rrq_check.Explore
module Sweep = Rrq_check.Sweep

(* baselines and utilities *)
module Plain = Rrq_baseline.Plain
module Held_txn = Rrq_baseline.Held_txn
module Rng = Rrq_util.Rng
module Swallow = Rrq_util.Swallow
module Histogram = Rrq_util.Histogram
module Table = Rrq_util.Table
