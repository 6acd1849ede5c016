(* B7: recovery cost vs. checkpointing (paper §10: queues are main-memory
   databases that must log updates; checkpoints bound replay work). Runs
   directly against a QM on a disk (no network needed): enqueue a stream of
   elements with some dequeues, crash, and measure the recovery work of
   re-opening the repository.

   Recovery time is measured on the {e simulated} clock, under an explicit
   replay-cost model ([replay_bytes_per_sec]): re-opening scans the live
   log, and the experiment charges the scan at a fixed device rate, exactly
   like [Disk.sync_latency] charges forces. Host time would make the row
   nondeterministic and break byte-identical trace replay (rrq_lint R2);
   virtual time makes the B7 table a pure function of the workload.

   The site-level rows do the same for a site's TM decision log: N
   two-phase commits (an enqueue and a KV write each), with the log never
   checkpointed (as before the TM had checkpoints) or checkpointed every
   500 records (the site janitor's default cadence). *)

module Disk = Rrq_storage.Disk
module Wal = Rrq_wal.Wal
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Tm = Rrq_txn.Tm
module Sched = Rrq_sim.Sched
module Table = Rrq_util.Table

type row = {
  log : [ `Qm | `Tm ];
  ops : int;
  checkpoint_every : int option;
  log_bytes : int;
  recovery_seconds : float;
  records_scanned : int;
  recovered_elements : int;
}

(* The modeled log-scan rate: a sequential read of a warm main-memory log.
   The absolute value only scales the column; the shape of the table (how
   checkpointing bounds replay) is what the experiment demonstrates. *)
let replay_bytes_per_sec = 256.0 *. 1024.0 *. 1024.0

(* Records a recovery of the log called [name] scans after a crash. *)
let scanned disk name = List.length (snd (Wal.open_log disk ~name)).Wal.records

(* Crash [disk], then time re-opening under the replay-cost model. *)
let timed_recovery disk ~log_bytes reopen =
  Disk.crash disk;
  let t0 = Sched.clock () in
  let v = reopen () in
  Sched.sleep (float_of_int log_bytes /. replay_bytes_per_sec);
  (v, Sched.clock () -. t0)

let one_run ~ops ~checkpoint_every =
  Common.run_scenario (fun _s () ->
      let disk = Disk.create "bench" in
      let qm = ref (Qm.open_qm disk ~name:"qm") in
      Qm.create_queue !qm "q";
      let h, _ = Qm.register !qm ~queue:"q" ~registrant:"bench" ~stable:false in
      let payload = String.make 128 'x' in
      for i = 1 to ops do
        ignore (Qm.auto_commit !qm (fun id -> Qm.enqueue !qm id h payload));
        (* dequeue half of them so recovery replays both kinds of records *)
        if i mod 2 = 0 then
          ignore (Qm.auto_commit !qm (fun id -> Qm.dequeue !qm id h Qm.No_wait));
        match checkpoint_every with
        | Some every -> Qm.maybe_checkpoint !qm ~every
        | None -> ()
      done;
      let log_bytes = Qm.live_log_bytes !qm in
      let (records_scanned, reopened), recovery_seconds =
        timed_recovery disk ~log_bytes (fun () ->
            let n = scanned disk "qm.qmlog" in
            (n, Qm.open_qm disk ~name:"qm"))
      in
      {
        log = `Qm;
        ops;
        checkpoint_every;
        log_bytes;
        recovery_seconds;
        records_scanned;
        recovered_elements = Qm.depth reopened "q";
      })

let tm_run ~txns ~checkpoint_every =
  Common.run_scenario (fun _s () ->
      let disk = Disk.create "bench" in
      let tm = Tm.open_tm disk ~name:"site" in
      let qm = Qm.open_qm disk ~name:"qm@site" in
      let kv = Kvdb.open_kv disk ~name:"kv@site" in
      Qm.create_queue qm "q";
      let h, _ = Qm.register qm ~queue:"q" ~registrant:"bench" ~stable:false in
      let qm_part = Qm.participant qm and kv_part = Kvdb.participant kv in
      for i = 1 to txns do
        let txn = Tm.begin_txn tm in
        (match
           let id = Tm.txn_id txn in
           ignore (Qm.enqueue qm id h "reply");
           Kvdb.put kv id (string_of_int (i mod 64)) "v";
           Tm.join txn qm_part;
           Tm.join txn kv_part
         with
        | () -> ignore (Tm.commit tm txn)
        | exception e ->
          Tm.abort tm txn;
          raise e);
        Option.iter (fun every -> Tm.maybe_checkpoint tm ~every) checkpoint_every
      done;
      let log_bytes = Tm.live_log_bytes tm in
      let records_scanned, recovery_seconds =
        timed_recovery disk ~log_bytes (fun () ->
            let n = scanned disk "site.tmlog" in
            ignore (Tm.open_tm disk ~name:"site");
            n)
      in
      {
        log = `Tm;
        ops = txns;
        checkpoint_every;
        log_bytes;
        recovery_seconds;
        records_scanned;
        recovered_elements = 0;
      })

let run ?(sizes = [ 1_000; 5_000; 20_000 ]) () =
  List.concat_map
    (fun ops ->
      [
        one_run ~ops ~checkpoint_every:None;
        one_run ~ops ~checkpoint_every:(Some 1000);
      ])
    sizes
  @ List.concat_map
      (fun txns ->
        [
          tm_run ~txns ~checkpoint_every:None;
          tm_run ~txns ~checkpoint_every:(Some 500);
        ])
      sizes

let table rows =
  let t =
    Table.create
      ~title:"B7: recovery time and log size vs checkpointing (128-byte payloads)"
      ~columns:
        [ "ops"; "checkpoint every"; "live log KB"; "recovery (virt ms)";
          "elements recovered"; "records scanned" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          (match r.log with
          | `Qm -> string_of_int r.ops
          | `Tm -> Printf.sprintf "%d 2PC txns (TM log)" r.ops);
          (match r.checkpoint_every with
          | None -> "never"
          | Some n -> string_of_int n);
          Printf.sprintf "%.1f" (float_of_int r.log_bytes /. 1024.0);
          Printf.sprintf "%.4f" (r.recovery_seconds *. 1000.0);
          (match r.log with
          | `Qm -> string_of_int r.recovered_elements
          | `Tm -> "-");
          string_of_int r.records_scanned;
        ])
    rows;
  t
