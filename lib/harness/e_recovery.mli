(** Experiment B7 (paper §10): recovery cost and the effect of
    checkpointing on a queue repository treated as a main-memory database
    with a log, and on a site's TM decision log. *)

type row = {
  log : [ `Qm | `Tm ];
      (** The queue manager's log ([ops] enqueues) or the TM decision log
          ([ops] two-phase commits). *)
  ops : int;
  checkpoint_every : int option;
  log_bytes : int;
  recovery_seconds : float;
      (** Virtual seconds to re-open after a crash, under the deterministic
          replay-cost model (live log scanned at a fixed device rate) — a
          pure function of the workload, so the B7 table is replayable. *)
  records_scanned : int;  (** Log records the re-open replayed. *)
  recovered_elements : int;
}

val run : ?sizes:int list -> unit -> row list
val table : row list -> Rrq_util.Table.t
