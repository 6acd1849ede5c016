(* The durability-boundary sweep, generalizing the hand-rolled loops of
   the crash-point and group-commit tests: count the sync operations of a
   clean run, then re-run the workload once per boundary with the disk
   frozen exactly there and audit recovery. (The named-crash-site sweep
   lives with the worlds it crashes: [Scenario.crash_sites].) *)

module Disk = Rrq_storage.Disk

let run_fiber f = Runner.run_scenario (fun _s () -> f ())

let disk_sweep ~make ~workload ~audit () =
  (* Clean run: count the durability boundaries and audit the no-crash
     outcome (point 0). *)
  let total =
    run_fiber (fun () ->
        let disk = make 0 in
        workload disk;
        let n = Disk.sync_count disk in
        Disk.crash disk;
        Disk.revive disk;
        audit ~point:0 disk;
        n)
  in
  (* The sweep: freeze the disk at every sync boundary, recover, audit. *)
  for point = 1 to total do
    run_fiber (fun () ->
        let disk = make point in
        Disk.kill_after_syncs disk point;
        workload disk;
        Disk.revive disk;
        audit ~point disk)
  done;
  total
