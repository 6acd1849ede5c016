(* Tests for the lock manager, the RM base (via the KV store) and the
   transaction manager, including crash-recovery and two-phase commit. *)

module Sched = Rrq_sim.Sched
module Disk = Rrq_storage.Disk
module Lock = Rrq_txn.Lock
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Kvdb = Rrq_kvdb.Kvdb
module H = Rrq_test_support.Sim_harness

let tx n = Txid.make ~origin:"t" ~inc:1 ~n

(* --- Lock manager --------------------------------------------------- *)

(* Releasing the last holder drops the key's entry; the key must still
   behave like a fresh one, with or without a waiter in between. *)
let test_lock_released_key_reacquirable () =
  H.run_fiber (fun () ->
      let lm = Lock.create () in
      Lock.acquire lm (tx 1) ~key:"exec:r1" Lock.X;
      Alcotest.(check bool) "locked" true (Lock.locked lm ~key:"exec:r1");
      Lock.release_all lm (tx 1);
      Alcotest.(check bool) "released" false (Lock.locked lm ~key:"exec:r1");
      Lock.acquire lm (tx 2) ~key:"exec:r1" Lock.X;
      Alcotest.(check bool) "reacquired" true
        (Lock.holds lm (tx 2) ~key:"exec:r1" Lock.X);
      let got = ref false in
      let waiter =
        Sched.fork ~name:"waiter" (fun () ->
            Lock.acquire lm (tx 3) ~key:"exec:r1" Lock.X;
            got := true)
      in
      Sched.yield ();
      Lock.release_all lm (tx 2);
      while Sched.alive waiter do
        Sched.yield ()
      done;
      Alcotest.(check bool) "waiter granted" true !got;
      Alcotest.(check bool) "held by waiter" true
        (Lock.holds lm (tx 3) ~key:"exec:r1" Lock.X);
      Lock.release_all lm (tx 3);
      Alcotest.(check bool) "released again" false
        (Lock.locked lm ~key:"exec:r1");
      Alcotest.(check int) "no waits left" 0 (Lock.waiting_count lm))

let test_lock_shared_compatible () =
  H.run_fiber (fun () ->
      let lm = Lock.create () in
      Lock.acquire lm (tx 1) ~key:"k" Lock.S;
      Lock.acquire lm (tx 2) ~key:"k" Lock.S;
      Alcotest.(check bool) "both hold" true
        (Lock.holds lm (tx 1) ~key:"k" Lock.S && Lock.holds lm (tx 2) ~key:"k" Lock.S))

let test_lock_exclusive_blocks () =
  let order = ref [] in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"t1" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               order := "t1-got" :: !order;
               Sched.sleep 5.0;
               Lock.release_all lm (tx 1);
               order := "t1-rel" :: !order));
        ignore
          (Sched.spawn s ~name:"t2" (fun () ->
               Sched.sleep 1.0;
               Lock.acquire lm (tx 2) ~key:"k" Lock.X;
               order := "t2-got" :: !order)))
  in
  Alcotest.(check (list string)) "fifo order"
    [ "t1-got"; "t1-rel"; "t2-got" ] (List.rev !order)

let test_lock_reentrant_and_upgrade () =
  H.run_fiber (fun () ->
      let lm = Lock.create () in
      Lock.acquire lm (tx 1) ~key:"k" Lock.S;
      Lock.acquire lm (tx 1) ~key:"k" Lock.S;
      Lock.acquire lm (tx 1) ~key:"k" Lock.X;
      Alcotest.(check bool) "upgraded" true (Lock.holds lm (tx 1) ~key:"k" Lock.X))

let test_lock_fairness_no_starvation () =
  (* An X waiter must not be starved by a stream of later S requests. *)
  let got_x = ref false in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"s1" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.S;
               Sched.sleep 2.0;
               Lock.release_all lm (tx 1)));
        ignore
          (Sched.spawn s ~name:"xw" (fun () ->
               Sched.sleep 1.0;
               Lock.acquire lm (tx 2) ~key:"k" Lock.X;
               got_x := true;
               Lock.release_all lm (tx 2)));
        ignore
          (Sched.spawn s ~name:"s2" (fun () ->
               Sched.sleep 1.5;
               (* queued behind the X waiter despite being S-compatible with
                  the current holder *)
               Lock.acquire lm (tx 3) ~key:"k" Lock.S;
               Alcotest.(check bool) "X granted before later S" true !got_x;
               Lock.release_all lm (tx 3))))
  in
  Alcotest.(check bool) "x eventually granted" true !got_x

let test_lock_deadlock_detected () =
  let deadlocked = ref 0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        let worker me mine theirs =
          ignore
            (Sched.spawn s ~name:(Txid.to_string me) (fun () ->
                 Lock.acquire lm me ~key:mine Lock.X;
                 Sched.sleep 1.0;
                 (try Lock.acquire lm me ~key:theirs Lock.X
                  with Lock.Deadlock _ ->
                    incr deadlocked;
                    Lock.release_all lm me);
                 Lock.release_all lm me))
        in
        worker (tx 1) "a" "b";
        worker (tx 2) "b" "a")
  in
  Alcotest.(check int) "exactly one victim" 1 !deadlocked

let test_lock_upgrade_deadlock_detected () =
  (* Two S holders both upgrading to X is a deadlock. *)
  let deadlocked = ref 0 and succeeded = ref 0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        let worker me =
          ignore
            (Sched.spawn s ~name:(Txid.to_string me) (fun () ->
                 Lock.acquire lm me ~key:"k" Lock.S;
                 Sched.sleep 1.0;
                 (try
                    Lock.acquire lm me ~key:"k" Lock.X;
                    incr succeeded
                  with Lock.Deadlock _ -> incr deadlocked);
                 Lock.release_all lm me))
        in
        worker (tx 1);
        worker (tx 2))
  in
  Alcotest.(check int) "one victim" 1 !deadlocked;
  Alcotest.(check int) "one winner" 1 !succeeded

let test_lock_cancel_waits () =
  let cancelled = ref false in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"holder" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               Sched.sleep 10.0;
               Lock.release_all lm (tx 1)));
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               Sched.sleep 1.0;
               try Lock.acquire lm (tx 2) ~key:"k" Lock.X
               with Lock.Cancelled -> cancelled := true));
        ignore
          (Sched.spawn s ~name:"canceller" (fun () ->
               Sched.sleep 2.0;
               Lock.cancel_waits lm (tx 2))))
  in
  Alcotest.(check bool) "woken with Cancelled" true !cancelled

let test_lock_timeout () =
  let timed_out = ref false in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"holder" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               Sched.sleep 10.0;
               Lock.release_all lm (tx 1)));
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               Sched.sleep 1.0;
               try Lock.acquire ~timeout:2.0 lm (tx 2) ~key:"k" Lock.X
               with Lock.Deadlock _ -> timed_out := true)))
  in
  Alcotest.(check bool) "timed out" true !timed_out

let test_lock_transfer () =
  (* Lock inheritance across chained transactions (paper 6). *)
  let t3_blocked_until = ref 0.0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"chain" (fun () ->
               Lock.acquire lm (tx 1) ~key:"acct" Lock.X;
               Sched.sleep 1.0;
               (* commit tx1, inherit its lock into tx2 *)
               Lock.transfer lm ~from:(tx 1) ~to_:(tx 2);
               Sched.sleep 1.0;
               Lock.release_all lm (tx 2)));
        ignore
          (Sched.spawn s ~name:"other" (fun () ->
               Sched.sleep 0.5;
               Lock.acquire lm (tx 3) ~key:"acct" Lock.X;
               t3_blocked_until := Sched.clock ();
               Lock.release_all lm (tx 3))))
  in
  Alcotest.(check (float 1e-9)) "blocked across the transfer" 2.0 !t3_blocked_until

let test_lock_release_unblocks_shared_group () =
  let got = ref 0 in
  let _ =
    H.run (fun s ->
        let lm = Lock.create () in
        ignore
          (Sched.spawn s ~name:"x" (fun () ->
               Lock.acquire lm (tx 1) ~key:"k" Lock.X;
               Sched.sleep 1.0;
               Lock.release_all lm (tx 1)));
        for i = 2 to 4 do
          ignore
            (Sched.spawn s ~name:(Printf.sprintf "s%d" i) (fun () ->
                 Sched.sleep 0.5;
                 Lock.acquire lm (tx i) ~key:"k" Lock.S;
                 incr got))
        done)
  in
  Alcotest.(check int) "all shared granted together" 3 !got

(* --- KVDB (RM base) -------------------------------------------------- *)

let fresh_kv ?(name = "kv") disk () = Kvdb.open_kv disk ~name

let test_kv_commit_durable () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      Kvdb.put kv id "b" "2";
      let p = Kvdb.participant kv in
      Alcotest.(check bool) "one-phase ok" true (p.Tm.p_one_phase id);
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (option string)) "a" (Some "1") (Kvdb.committed_value kv2 "a");
      Alcotest.(check (option string)) "b" (Some "2") (Kvdb.committed_value kv2 "b"))

let test_kv_abort_discards () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      (Kvdb.participant kv).Tm.p_abort id;
      Alcotest.(check (option string)) "nothing" None (Kvdb.committed_value kv "a");
      (* the lock was released: a new transaction can take the key at once *)
      let id2 = tx 2 in
      Kvdb.put kv id2 "a" "2";
      ignore ((Kvdb.participant kv).Tm.p_one_phase id2);
      Alcotest.(check (option string)) "second txn wins" (Some "2")
        (Kvdb.committed_value kv "a"))

let test_kv_read_own_writes () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      Alcotest.(check (option string)) "own write" (Some "1") (Kvdb.get kv id "a");
      Kvdb.delete kv id "a";
      Alcotest.(check (option string)) "own delete" None (Kvdb.get kv id "a"))

let test_kv_add_helper () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Alcotest.(check int) "0+5" 5 (Kvdb.add kv id "c" 5);
      Alcotest.(check int) "5+3" 8 (Kvdb.add kv id "c" 3);
      ignore ((Kvdb.participant kv).Tm.p_one_phase id);
      Alcotest.(check (option string)) "committed" (Some "8")
        (Kvdb.committed_value kv "c"))

let test_kv_crash_loses_uncommitted () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      Kvdb.put kv (tx 1) "a" "1";
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (option string)) "lost" None (Kvdb.committed_value kv2 "a"))

let test_kv_prepared_survives_crash () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      let p = Kvdb.participant kv in
      Alcotest.(check bool) "prepared" true (p.Tm.p_prepare id ~coordinator:"c");
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      (* in doubt: invisible but recorded *)
      Alcotest.(check (option string)) "invisible" None (Kvdb.committed_value kv2 "a");
      let p2 = Kvdb.participant kv2 in
      Alcotest.(check bool) "commit delivers" true (p2.Tm.p_commit id);
      Alcotest.(check (option string)) "applied" (Some "1")
        (Kvdb.committed_value kv2 "a");
      (* and survives another crash *)
      Disk.crash disk;
      let kv3 = fresh_kv disk () in
      Alcotest.(check (option string)) "still applied" (Some "1")
        (Kvdb.committed_value kv3 "a"))

let test_kv_indoubt_blocks_readers () =
  let read_done_at = ref 0.0 in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n1" in
        let kv = fresh_kv disk () in
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               let id = tx 1 in
               Kvdb.put kv id "a" "1";
               ignore ((Kvdb.participant kv).Tm.p_prepare id ~coordinator:"c");
               Disk.crash disk;
               let kv2 = fresh_kv disk () in
               ignore
                 (Sched.fork ~name:"reader" (fun () ->
                      (* blocked by the in-doubt X lock *)
                      ignore (Kvdb.get kv2 (tx 2) "a");
                      read_done_at := Sched.clock ();
                      Kvdb.release_locks kv2 (tx 2)));
               Sched.sleep 5.0;
               ignore ((Kvdb.participant kv2).Tm.p_commit id))))
  in
  Alcotest.(check bool) "reader waited for resolution" true (!read_done_at >= 5.0)

let test_kv_abort_prepared () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      let id = tx 1 in
      Kvdb.put kv id "a" "1";
      ignore ((Kvdb.participant kv).Tm.p_prepare id ~coordinator:"c");
      (Kvdb.participant kv).Tm.p_abort id;
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (option string)) "aborted stays gone" None
        (Kvdb.committed_value kv2 "a"))

let test_kv_checkpoint_recovery_equivalence () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let kv = fresh_kv disk () in
      for i = 1 to 20 do
        let id = tx i in
        Kvdb.put kv id (Printf.sprintf "k%d" (i mod 5)) (string_of_int i);
        ignore ((Kvdb.participant kv).Tm.p_one_phase id)
      done;
      Kvdb.checkpoint kv;
      for i = 21 to 30 do
        let id = tx i in
        Kvdb.put kv id (Printf.sprintf "k%d" (i mod 5)) (string_of_int i);
        ignore ((Kvdb.participant kv).Tm.p_one_phase id)
      done;
      let before = Kvdb.committed_bindings kv in
      Disk.crash disk;
      let kv2 = fresh_kv disk () in
      Alcotest.(check (list (pair string string))) "same state" before
        (Kvdb.committed_bindings kv2))

(* --- TM / two-phase commit ------------------------------------------ *)

let test_tm_two_rm_commit () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let kvb = Kvdb.open_kv disk ~name:"kvb" in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      Kvdb.put kva id "x" "1";
      Kvdb.put kvb id "y" "2";
      Tm.join txn (Kvdb.participant kva);
      Tm.join txn (Kvdb.participant kvb);
      (match Tm.commit tm txn with
      | Tm.Committed -> ()
      | Tm.Aborted -> Alcotest.fail "should commit");
      Alcotest.(check (option string)) "x" (Some "1") (Kvdb.committed_value kva "x");
      Alcotest.(check (option string)) "y" (Some "2") (Kvdb.committed_value kvb "y");
      Alcotest.(check (list pass)) "nothing pending" [] (Tm.pending_decisions tm))

(* A No vote aborts every participant. The prepares run concurrently, so
   the yes-voting store after the naysayer prepares too; the abort must
   leave it with nothing in doubt. *)
let test_tm_vote_no_aborts_all () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let kvb = Kvdb.open_kv disk ~name:"kvb" in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      Kvdb.put kva id "x" "1";
      Kvdb.put kvb id "y" "2";
      Tm.join txn (Kvdb.participant kva);
      Tm.join txn
        {
          Tm.part_name = "naysayer";
          p_prepare = (fun _ ~coordinator:_ -> false);
          p_commit = (fun _ -> true);
          p_abort = (fun _ -> ());
          p_one_phase = (fun _ -> true);
          p_has_work = (fun _ -> true);
          p_is_local = true;
        };
      let pb = Kvdb.participant kvb in
      let b_voted = ref false in
      Tm.join txn
        {
          pb with
          Tm.p_prepare =
            (fun tid ~coordinator ->
              let vote = pb.Tm.p_prepare tid ~coordinator in
              b_voted := vote;
              vote);
        };
      (match Tm.commit tm txn with
      | Tm.Aborted -> ()
      | Tm.Committed -> Alcotest.fail "must abort");
      Alcotest.(check (option string)) "x discarded" None
        (Kvdb.committed_value kva "x");
      Alcotest.(check bool) "the store after the naysayer voted yes" true !b_voted;
      Alcotest.(check (option string)) "y discarded" None (Kvdb.committed_value kvb "y");
      Alcotest.(check bool) "nothing in doubt at kvb" true
        (Kvdb.in_doubt kvb = [] && not (Kvdb.is_prepared kvb id));
      Alcotest.(check bool) "nothing in doubt at kva" true (Kvdb.in_doubt kva = []))

let test_tm_coordinator_crash_before_decision_presumes_abort () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let txn = Tm.begin_txn tm in
      let id = Tm.txn_id txn in
      Kvdb.put kva id "x" "1";
      (* Participant prepares, then the coordinator "crashes" before logging
         a decision. *)
      ignore ((Kvdb.participant kva).Tm.p_prepare id ~coordinator:"tm1");
      Disk.crash disk;
      let tm2 = Tm.open_tm disk ~name:"tm1" in
      Alcotest.(check bool) "presumed abort" true (Tm.decision tm2 id = `Aborted))

let test_tm_decision_survives_crash_and_redelivers () =
  let committed_value = ref None in
  let _ =
    H.run (fun s ->
        let disk = Disk.create "n1" in
        ignore
          (Sched.spawn s ~name:"flow" (fun () ->
               let tm = Tm.open_tm disk ~name:"tm1" in
               let kva = Kvdb.open_kv disk ~name:"kva" in
               let kvb = Kvdb.open_kv disk ~name:"kvb" in
               let txn = Tm.begin_txn tm in
               let id = Tm.txn_id txn in
               Kvdb.put kva id "x" "1";
               Kvdb.put kvb id "y" "2";
               Tm.join txn (Kvdb.participant kva);
               (* kvb's commit delivery fails the first time around *)
               let flaky_done = ref false in
               let pb = Kvdb.participant kvb in
               Tm.join txn
                 {
                   pb with
                   Tm.p_commit =
                     (fun tid ->
                       if !flaky_done then pb.Tm.p_commit tid
                       else begin
                         flaky_done := true;
                         false
                       end);
                 };
               (match Tm.commit tm txn with
               | Tm.Committed -> ()
               | Tm.Aborted -> Alcotest.fail "should commit");
               Alcotest.(check bool) "decision pending" true
                 (Tm.pending_decisions tm <> []);
               (* background redelivery retries after 1s *)
               Sched.sleep 3.0;
               Alcotest.(check (list pass)) "retired" [] (Tm.pending_decisions tm);
               committed_value := Kvdb.committed_value kvb "y")))
  in
  Alcotest.(check (option string)) "kvb applied via redelivery" (Some "2")
    !committed_value

let test_tm_recover_pending_after_crash () =
  let final = ref None in
  let retired = ref false in
  let disk = Disk.create "n1" in
  let _ =
    H.run (fun s ->
        (* Incarnation 1: commit a 2PC transaction whose second participant
           never acknowledges, then crash the whole node (fibers + volatile
           disk state). *)
        ignore
          (Sched.spawn s ~group:"inc1" ~name:"flow1" (fun () ->
               let tm = Tm.open_tm disk ~name:"tm1" in
               let kva = Kvdb.open_kv disk ~name:"kva" in
               let kvb = Kvdb.open_kv disk ~name:"kvb" in
               let txn = Tm.begin_txn tm in
               let id = Tm.txn_id txn in
               Kvdb.put kva id "x" "1";
               Kvdb.put kvb id "y" "2";
               Tm.join txn (Kvdb.participant kva);
               let pb = Kvdb.participant kvb in
               Tm.join txn { pb with Tm.p_commit = (fun _ -> false) };
               match Tm.commit tm txn with
               | Tm.Committed -> ()
               | Tm.Aborted -> Alcotest.fail "should commit"));
        Sched.at s 10.0 (fun () ->
            Sched.kill_group s "inc1";
            Disk.crash disk;
            (* Incarnation 2: recovery finds the decision and redelivers. *)
            ignore
              (Sched.spawn s ~group:"inc2" ~name:"flow2" (fun () ->
                   let tm2 = Tm.open_tm disk ~name:"tm1" in
                   let kva2 = Kvdb.open_kv disk ~name:"kva" in
                   let kvb2 = Kvdb.open_kv disk ~name:"kvb" in
                   Tm.set_resolver tm2 (fun pname ->
                       if pname = "kva" then Some (Kvdb.participant kva2)
                       else if pname = "kvb" then Some (Kvdb.participant kvb2)
                       else None);
                   Alcotest.(check bool) "decision recovered" true
                     (Tm.pending_decisions tm2 <> []);
                   Tm.recover_pending tm2;
                   Sched.sleep 5.0;
                   retired := Tm.pending_decisions tm2 = [];
                   final := Kvdb.committed_value kvb2 "y"))))
  in
  Alcotest.(check bool) "retired after recovery" true !retired;
  Alcotest.(check (option string)) "kvb eventually applied" (Some "2") !final

(* --- Overlapped 2PC phases -------------------------------------------- *)

let phase_fibers s =
  List.filter (fun n -> n = "tm.phase") (Sched.live_fibers s)

(* Whether some file of [disk] holds appended bytes not yet synced: a log
   force is under way. *)
let force_in_flight disk =
  List.exists
    (fun f ->
      let h = Disk.open_file disk f in
      Disk.size h > Disk.durable_size h)
    (Disk.list_files disk)

(* Stores on devices of their own: [kva] syncs in 1 s, [kvb] in 3 s and
   [kvc] in 2 s; the TM's device takes 1 s. *)
let overlap_world () =
  ( Disk.create ~sync_latency:1.0 "tmdisk",
    Disk.create ~sync_latency:1.0 "fast",
    Disk.create ~sync_latency:3.0 "slow",
    Disk.create ~sync_latency:2.0 "mid" )

let open_overlap (dt, da, db, dc) =
  ( Tm.open_tm dt ~name:"tm1",
    Kvdb.open_kv da ~name:"kva",
    Kvdb.open_kv db ~name:"kvb",
    Kvdb.open_kv dc ~name:"kvc" )

let crash_all (dt, da, db, dc) = List.iter Disk.crash [ dt; da; db; dc ]

(* Crash while one prepare is durable and the others are parked in their
   forces: the slow store's inline, the middle one's in a forked phase
   fiber. No decision was logged, so after restart the prepared store
   resolves presumed-abort and nothing is in doubt anywhere. *)
let test_tm_crash_mid_prepare () =
  let ((_, da, db, dc) as disks) = overlap_world () in
  let at_crash = ref [] and after = ref [] in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~group:"inc1" ~name:"flow1" (fun () ->
               let tm, kva, kvb, kvc = open_overlap disks in
               let txn = Tm.begin_txn tm in
               let tid = Tm.txn_id txn in
               List.iter
                 (fun kv ->
                   Kvdb.put kv tid "k" (Kvdb.name kv);
                   Tm.join txn (Kvdb.participant kv))
                 [ kvb; kva; kvc ];
               (* kvb's prepare runs inline and ends 3 s from now; the
                  forked ones end after 1 s (kva) and 2 s (kvc). *)
               Sched.at s (Sched.clock () +. 1.5) (fun () ->
                   at_crash :=
                     [
                       ("kva prepared", Kvdb.is_prepared kva tid);
                       ("kva's prepare durable", not (force_in_flight da));
                       ("kvb parked in its prepare force", force_in_flight db);
                       ("kvc parked in its prepare force", force_in_flight dc);
                       ("decision pending", Tm.decision tm tid = `Pending);
                       ("a phase fiber is live", phase_fibers s <> []);
                     ];
                   Sched.kill_group s "inc1";
                   crash_all disks;
                   after := [ ("no phase fiber after the crash", phase_fibers s = []) ];
                   ignore
                     (Sched.spawn s ~group:"inc2" ~name:"flow2" (fun () ->
                          let tm2, kva2, kvb2, kvc2 = open_overlap disks in
                          let stores = [ kva2; kvb2; kvc2 ] in
                          let in_doubt kv = List.map fst (Kvdb.in_doubt kv) in
                          after :=
                            !after
                            @ [
                                ("no decision", Tm.decision tm2 tid = `Aborted);
                                ("kva in doubt", in_doubt kva2 = [ tid ]);
                                ("kvb, kvc never prepared", in_doubt kvb2 = [] && in_doubt kvc2 = []);
                              ];
                          (* Presumed abort: the resolver aborts each doubt. *)
                          List.iter
                            (fun kv ->
                              List.iter
                                (fun (d, _) -> (Kvdb.participant kv).Tm.p_abort d)
                                (Kvdb.in_doubt kv))
                            stores;
                          after :=
                            !after
                            @ [
                                ("nothing in doubt", List.for_all (fun kv -> in_doubt kv = []) stores);
                                ( "nothing committed",
                                  List.for_all (fun kv -> Kvdb.committed_value kv "k" = None) stores );
                                ("no pending decisions", Tm.pending_decisions tm2 = []);
                              ])));
               ignore (Tm.commit tm txn);
               Alcotest.fail "the crash must stop the commit")))
  in
  List.iter (fun (what, ok) -> Alcotest.(check bool) what true ok) (!at_crash @ !after);
  Alcotest.(check int) "every check ran" 13 (List.length (!at_crash @ !after))

(* Crash after one store acknowledged its commit while the other's commit
   force is parked in a forked phase fiber. The decision is durable, so
   recovery redelivers to both (a repeated commit is acknowledged) and
   retires it. *)
let test_tm_crash_mid_delivery () =
  let ((_, _, db, _) as disks) = overlap_world () in
  let at_crash = ref [] and after = ref [] in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~group:"inc1" ~name:"flow1" (fun () ->
               let tm, kva, kvb, _ = open_overlap disks in
               let txn = Tm.begin_txn tm in
               let tid = Tm.txn_id txn in
               Kvdb.put kva tid "x" "1";
               Kvdb.put kvb tid "y" "2";
               Tm.join txn (Kvdb.participant kva);
               Tm.join txn (Kvdb.participant kvb);
               (* Prepares end at +3, the decision force at +4, kva's
                  commit (inline) at +5 and kvb's (forked) at +7. *)
               Sched.at s (Sched.clock () +. 5.5) (fun () ->
                   at_crash :=
                     [
                       ("decided", Tm.decision tm tid = `Committed);
                       ("kva acknowledged", Kvdb.committed_value kva "x" = Some "1");
                       ("kvb parked in its commit force", force_in_flight db);
                       ("a phase fiber is live", phase_fibers s <> []);
                     ];
                   Sched.kill_group s "inc1";
                   crash_all disks;
                   after := [ ("no phase fiber after the crash", phase_fibers s = []) ];
                   ignore
                     (Sched.spawn s ~group:"inc2" ~name:"flow2" (fun () ->
                          let tm2, kva2, kvb2, _ = open_overlap disks in
                          Tm.set_resolver tm2 (fun pname ->
                              if pname = "kva" then Some (Kvdb.participant kva2)
                              else if pname = "kvb" then Some (Kvdb.participant kvb2)
                              else None);
                          after :=
                            !after
                            @ [
                                ("decision recovered", Tm.pending_decisions tm2 = [ tid ]);
                                ("kvb in doubt", List.map fst (Kvdb.in_doubt kvb2) = [ tid ]);
                                ("kvb's commit lost", Kvdb.committed_value kvb2 "y" = None);
                              ];
                          Tm.recover_pending tm2;
                          Sched.sleep 10.0;
                          after :=
                            !after
                            @ [
                                ("retired", Tm.pending_decisions tm2 = []);
                                ("x committed", Kvdb.committed_value kva2 "x" = Some "1");
                                ("y committed", Kvdb.committed_value kvb2 "y" = Some "2");
                                ("nothing in doubt", Kvdb.in_doubt kvb2 = []);
                              ])));
               ignore (Tm.commit tm txn);
               Alcotest.fail "the crash must stop the delivery")))
  in
  List.iter (fun (what, ok) -> Alcotest.(check bool) what true ok) (!at_crash @ !after);
  Alcotest.(check int) "every check ran" 12 (List.length (!at_crash @ !after))

let test_tm_empty_and_single () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let txn = Tm.begin_txn tm in
      Alcotest.(check bool) "empty commits" true (Tm.commit tm txn = Tm.Committed);
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let txn2 = Tm.begin_txn tm in
      Kvdb.put kva (Tm.txn_id txn2) "x" "1";
      Tm.join txn2 (Kvdb.participant kva);
      Alcotest.(check bool) "single commits one-phase" true
        (Tm.commit tm txn2 = Tm.Committed);
      Alcotest.(check (list pass)) "no 2pc pending" [] (Tm.pending_decisions tm))

let test_tm_abort_releases () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let kva = Kvdb.open_kv disk ~name:"kva" in
      let txn = Tm.begin_txn tm in
      Kvdb.put kva (Tm.txn_id txn) "x" "1";
      Tm.join txn (Kvdb.participant kva);
      Tm.abort tm txn;
      Tm.abort tm txn (* idempotent *);
      let txn2 = Tm.begin_txn tm in
      Kvdb.put kva (Tm.txn_id txn2) "x" "2";
      Tm.join txn2 (Kvdb.participant kva);
      ignore (Tm.commit tm txn2);
      Alcotest.(check (option string)) "second txn proceeds" (Some "2")
        (Kvdb.committed_value kva "x"))

let test_tm_hooks () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let log = ref [] in
      let txn = Tm.begin_txn tm in
      Tm.on_commit txn (fun () -> log := "c1" :: !log);
      Tm.on_commit txn (fun () -> log := "c2" :: !log);
      Tm.on_abort txn (fun () -> log := "a" :: !log);
      ignore (Tm.commit tm txn);
      Alcotest.(check (list string)) "commit hooks in order" [ "c1"; "c2" ]
        (List.rev !log))

(* --- TM log checkpointing ------------------------------------------- *)

(* A participant that always votes yes and acknowledges when [ack]. *)
let yes_participant ?(ack = fun () -> true) name =
  {
    Tm.part_name = name;
    p_prepare = (fun _ ~coordinator:_ -> true);
    p_commit = (fun _ -> ack ());
    p_abort = (fun _ -> ());
    p_one_phase = (fun _ -> true);
    p_has_work = (fun _ -> true);
    p_is_local = true;
  }

(* One 2PC commit over two always-yes participants. *)
let commit_2pc ?ack tm =
  let txn = Tm.begin_txn tm in
  Tm.join txn (yes_participant ?ack "ra");
  Tm.join txn (yes_participant ?ack "rb");
  (match Tm.commit tm txn with
  | Tm.Committed -> ()
  | Tm.Aborted -> Alcotest.fail "should commit");
  Tm.txn_id txn

let test_tm_checkpoint_keeps_pending () =
  let disk = Disk.create "n1" in
  let id = ref None and retired_ids = ref [] in
  let redelivered = ref [] and retired = ref false in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~group:"inc1" ~name:"flow1" (fun () ->
               let tm = Tm.open_tm disk ~name:"tm1" in
               (* Unacknowledged: the decision stays pending. *)
               id := Some (commit_2pc ~ack:(fun () -> false) tm);
               retired_ids := List.init 5 (fun _ -> commit_2pc tm);
               Tm.checkpoint tm));
        Sched.at s 10.0 (fun () ->
            Sched.kill_group s "inc1";
            Disk.crash disk;
            ignore
              (Sched.spawn s ~group:"inc2" ~name:"flow2" (fun () ->
                   let tm2 = Tm.open_tm disk ~name:"tm1" in
                   Alcotest.(check (list string)) "only the unacked decision"
                     [ Txid.to_string (Option.get !id) ]
                     (List.map Txid.to_string (Tm.pending_decisions tm2));
                   List.iter
                     (fun rid ->
                       Alcotest.(check bool) "retired stays retired" true
                         (Tm.decision tm2 rid = `Aborted))
                     !retired_ids;
                   Alcotest.(check bool) "answers committed" true
                     (Tm.decision tm2 (Option.get !id) = `Committed);
                   Tm.set_resolver tm2 (fun pname ->
                       Some
                         (yes_participant
                            ~ack:(fun () ->
                              redelivered := pname :: !redelivered;
                              true)
                            pname));
                   Tm.recover_pending tm2;
                   Sched.sleep 5.0;
                   retired := Tm.pending_decisions tm2 = []))))
  in
  Alcotest.(check (list string)) "redelivered to both" [ "ra"; "rb" ]
    (List.sort compare !redelivered);
  Alcotest.(check bool) "retired after redelivery" true !retired

let test_tm_incarnation_rises_across_checkpoints () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let seen = Hashtbl.create 16 in
      let last_inc = ref 0 in
      for _ = 1 to 4 do
        let tm = Tm.open_tm disk ~name:"tm1" in
        for _ = 1 to 3 do
          let id = commit_2pc tm in
          Alcotest.(check bool) "fresh txid" false
            (Hashtbl.mem seen (Txid.to_string id));
          Hashtbl.replace seen (Txid.to_string id) ();
          Alcotest.(check bool) "incarnation rises" true (id.Txid.inc > !last_inc)
        done;
        last_inc := (commit_2pc tm).Txid.inc;
        (* Truncate every incarnation record written so far. *)
        Tm.checkpoint tm;
        Disk.crash disk
      done)

(* The decision record is appended and its force is parked on the device
   when the checkpoint runs; the checkpoint deletes the segment holding
   it, so only the snapshot can carry the decision across the crash that
   follows. *)
let test_tm_checkpoint_covers_parked_decision () =
  let disk = Disk.create ~sync_latency:1.0 "n1" in
  let tm = ref None and id = ref None and found = ref None in
  let _ =
    H.run (fun s ->
        ignore
          (Sched.spawn s ~group:"inc1" ~name:"flow1" (fun () ->
               let t = Tm.open_tm disk ~name:"tm1" in
               tm := Some t;
               let txn = Tm.begin_txn t in
               id := Some (Tm.txn_id txn);
               Tm.join txn (yes_participant "ra");
               Tm.join txn (yes_participant "rb");
               ignore (Tm.commit t txn)));
        (* The boot-time incarnation force ends at t=1; the decision force
           occupies the device until t=2. *)
        Sched.at s 1.5 (fun () ->
            let t = Option.get !tm in
            Alcotest.(check bool) "decision still pending" true
              (Tm.decision t (Option.get !id) = `Pending);
            Tm.checkpoint t;
            Sched.kill_group s "inc1";
            Disk.crash disk;
            ignore
              (Sched.spawn s ~group:"inc2" ~name:"flow2" (fun () ->
                   let tm2 = Tm.open_tm disk ~name:"tm1" in
                   found := Some (Tm.decision tm2 (Option.get !id))))))
  in
  Alcotest.(check bool) "decision survives the crash" true
    (!found = Some `Committed)

let test_tm_log_bounded () =
  H.run_fiber (fun () ->
      let disk = Disk.create "n1" in
      let tm = Tm.open_tm disk ~name:"tm1" in
      let n = 1_000 in
      let peak = ref 0 in
      let run_commits k =
        peak := 0;
        for _ = 1 to k do
          ignore (commit_2pc tm);
          Tm.maybe_checkpoint tm ~every:500;
          peak := max !peak (Tm.live_log_bytes tm)
        done;
        !peak
      in
      let peak_n = run_commits n in
      let peak_10n = run_commits (9 * n) in
      Alcotest.(check bool)
        (Printf.sprintf "10N peak %d <= N peak %d" peak_10n peak_n)
        true (peak_10n <= peak_n);
      Alcotest.(check bool)
        (Printf.sprintf "peak %d under 64 KB" peak_10n)
        true
        (peak_10n < 64 * 1024))

let test_txid_roundtrip () =
  let id = Txid.make ~origin:"node-7" ~inc:3 ~n:42 in
  let e = Rrq_util.Codec.encoder () in
  Txid.encode e id;
  let d = Rrq_util.Codec.decoder (Rrq_util.Codec.to_string e) in
  Alcotest.(check bool) "roundtrip" true (Txid.equal id (Txid.decode d));
  Alcotest.(check string) "to_string" "node-7.3.42" (Txid.to_string id)

let lock_suite =
  [
    Alcotest.test_case "S/S compatible" `Quick test_lock_shared_compatible;
    Alcotest.test_case "released key reacquirable" `Quick
      test_lock_released_key_reacquirable;
    Alcotest.test_case "X blocks, FIFO" `Quick test_lock_exclusive_blocks;
    Alcotest.test_case "reentrant + upgrade" `Quick test_lock_reentrant_and_upgrade;
    Alcotest.test_case "fairness: no X starvation" `Quick
      test_lock_fairness_no_starvation;
    Alcotest.test_case "deadlock detected" `Quick test_lock_deadlock_detected;
    Alcotest.test_case "upgrade deadlock detected" `Quick
      test_lock_upgrade_deadlock_detected;
    Alcotest.test_case "cancel waits" `Quick test_lock_cancel_waits;
    Alcotest.test_case "timeout" `Quick test_lock_timeout;
    Alcotest.test_case "transfer (lock inheritance)" `Quick test_lock_transfer;
    Alcotest.test_case "release unblocks shared group" `Quick
      test_lock_release_unblocks_shared_group;
  ]

let kv_suite =
  [
    Alcotest.test_case "commit durable" `Quick test_kv_commit_durable;
    Alcotest.test_case "abort discards" `Quick test_kv_abort_discards;
    Alcotest.test_case "read own writes" `Quick test_kv_read_own_writes;
    Alcotest.test_case "add helper" `Quick test_kv_add_helper;
    Alcotest.test_case "crash loses uncommitted" `Quick
      test_kv_crash_loses_uncommitted;
    Alcotest.test_case "prepared survives crash" `Quick
      test_kv_prepared_survives_crash;
    Alcotest.test_case "in-doubt blocks readers" `Quick
      test_kv_indoubt_blocks_readers;
    Alcotest.test_case "abort prepared" `Quick test_kv_abort_prepared;
    Alcotest.test_case "checkpoint recovery equivalence" `Quick
      test_kv_checkpoint_recovery_equivalence;
  ]

let tm_suite =
  [
    Alcotest.test_case "two-RM 2PC commit" `Quick test_tm_two_rm_commit;
    Alcotest.test_case "no-vote aborts all" `Quick test_tm_vote_no_aborts_all;
    Alcotest.test_case "coordinator crash => presumed abort" `Quick
      test_tm_coordinator_crash_before_decision_presumes_abort;
    Alcotest.test_case "decision survives crash, redelivers" `Quick
      test_tm_decision_survives_crash_and_redelivers;
    Alcotest.test_case "recover_pending after crash" `Quick
      test_tm_recover_pending_after_crash;
    Alcotest.test_case "crash with one prepare durable, one in flight" `Quick
      test_tm_crash_mid_prepare;
    Alcotest.test_case "crash after one commit acknowledgment" `Quick
      test_tm_crash_mid_delivery;
    Alcotest.test_case "empty + single participant" `Quick test_tm_empty_and_single;
    Alcotest.test_case "abort releases" `Quick test_tm_abort_releases;
    Alcotest.test_case "hooks" `Quick test_tm_hooks;
    Alcotest.test_case "txid roundtrip" `Quick test_txid_roundtrip;
    Alcotest.test_case "checkpoint keeps pending, redelivers" `Quick
      test_tm_checkpoint_keeps_pending;
    Alcotest.test_case "incarnation rises across checkpoints" `Quick
      test_tm_incarnation_rises_across_checkpoints;
    Alcotest.test_case "checkpoint covers a parked decision" `Quick
      test_tm_checkpoint_covers_parked_decision;
    Alcotest.test_case "log bounded under checkpoints" `Quick
      test_tm_log_bounded;
  ]

let () =
  Alcotest.run "rrq-txn"
    [ ("lock", lock_suite); ("kvdb", kv_suite); ("tm", tm_suite) ]
