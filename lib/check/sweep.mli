(** Crash-point enumeration: exhaustively crash a workload at every
    durability boundary instead of at a few hand-picked points. Named crash
    sites are swept per scenario with {!Scenario.crash_sites} and
    {!Scenario.crash_at}. *)

val disk_sweep :
  make:(int -> Rrq_storage.Disk.t) ->
  workload:(Rrq_storage.Disk.t -> unit) ->
  audit:(point:int -> Rrq_storage.Disk.t -> unit) ->
  unit ->
  int
(** Run [workload (make 0)] once cleanly to count its sync operations and
    audit the crash-free outcome, then for every boundary [p] in
    [1..total]: build a fresh disk, arm [Disk.kill_after_syncs p], run the
    workload (the disk freezes at boundary [p]), revive and [audit ~point:p].
    Each run executes inside its own simulation fiber. Returns the number
    of boundaries swept. *)
