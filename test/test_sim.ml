(* Tests for the discrete-event scheduler, channels, ivars and conditions. *)

module Sched = Rrq_sim.Sched
module Chan = Rrq_sim.Chan
module Ivar = Rrq_sim.Ivar
module Cond = Rrq_sim.Cond

let run_sim f =
  let s = Sched.create () in
  f s;
  Sched.run s;
  Alcotest.(check (list (pair string pass)))
    "no unhandled fiber exceptions" [] (Sched.failures s);
  s

let test_sleep_order () =
  let log = ref [] in
  let push tag = log := tag :: !log in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~name:"a" (fun () ->
               Sched.sleep 3.0;
               push "a"));
        ignore
          (Sched.spawn s ~name:"b" (fun () ->
               Sched.sleep 1.0;
               push "b";
               Sched.sleep 3.0;
               push "b2"));
        ignore (Sched.spawn s ~name:"c" (fun () -> push "c")))
  in
  Alcotest.(check (list string)) "order" [ "c"; "b"; "a"; "b2" ] (List.rev !log)

let test_virtual_time () =
  let seen = ref 0.0 in
  let s =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~name:"t" (fun () ->
               Sched.sleep 5.0;
               Sched.sleep 2.5;
               seen := Sched.clock ())))
  in
  Alcotest.(check (float 1e-9)) "clock inside fiber" 7.5 !seen;
  Alcotest.(check (float 1e-9)) "final scheduler time" 7.5 (Sched.now s)

let test_chan_fifo () =
  let got = ref [] in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        ignore
          (Sched.spawn s ~name:"consumer" (fun () ->
               for _ = 1 to 3 do
                 got := Chan.recv c :: !got
               done));
        ignore
          (Sched.spawn s ~name:"producer" (fun () ->
               List.iter (Chan.send c) [ 1; 2; 3 ])))
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_chan_timeout () =
  let r1 = ref (Some 99) and r2 = ref None in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        ignore
          (Sched.spawn s ~name:"waiter" (fun () ->
               r1 := Chan.recv_timeout c 1.0;
               r2 := Chan.recv_timeout c 10.0));
        ignore
          (Sched.spawn s ~name:"late-sender" (fun () ->
               Sched.sleep 5.0;
               Chan.send c 42)))
  in
  Alcotest.(check (option int)) "timed out" None !r1;
  Alcotest.(check (option int)) "delivered" (Some 42) !r2

let test_timed_out_waiter_does_not_eat_message () =
  (* A waiter that timed out must not consume a later send: the value must
     go to the next waiter instead. *)
  let impatient = ref (Some 0) and patient = ref None in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        ignore
          (Sched.spawn s ~name:"impatient" (fun () ->
               impatient := Chan.recv_timeout c 1.0));
        ignore
          (Sched.spawn s ~name:"patient" (fun () ->
               Sched.sleep 0.5;
               patient := Chan.recv_timeout c 10.0));
        ignore
          (Sched.spawn s ~name:"sender" (fun () ->
               Sched.sleep 2.0;
               Chan.send c 7)))
  in
  Alcotest.(check (option int)) "impatient timed out" None !impatient;
  Alcotest.(check (option int)) "patient got it" (Some 7) !patient

let test_kill_group () =
  let survivor = ref false and victim = ref false in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~group:"nodeA" ~name:"victim" (fun () ->
               Sched.sleep 10.0;
               victim := true));
        ignore
          (Sched.spawn s ~group:"nodeB" ~name:"survivor" (fun () ->
               Sched.sleep 10.0;
               survivor := true));
        Sched.at s 5.0 (fun () -> Sched.kill_group s "nodeA"))
  in
  Alcotest.(check bool) "victim never resumed" false !victim;
  Alcotest.(check bool) "survivor resumed" true !survivor

let test_kill_before_first_run () =
  let ran = ref false in
  let _ =
    run_sim (fun s ->
        let f = Sched.spawn s ~name:"doomed" (fun () -> ran := true) in
        Sched.kill s f)
  in
  Alcotest.(check bool) "never started" false !ran

let test_fork_inherits_group () =
  let child_group = ref None in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~group:"g1" ~name:"parent" (fun () ->
               let child = Sched.fork ~name:"child" (fun () -> ()) in
               child_group := Sched.fiber_group child)))
  in
  Alcotest.(check (option string)) "inherited" (Some "g1") !child_group

let test_ivar () =
  let a = ref 0 and b = ref 0 and late = ref None in
  let _ =
    run_sim (fun s ->
        let iv = Ivar.create () in
        ignore (Sched.spawn s ~name:"r1" (fun () -> a := Ivar.read iv));
        ignore (Sched.spawn s ~name:"r2" (fun () -> b := Ivar.read iv));
        ignore
          (Sched.spawn s ~name:"filler" (fun () ->
               Sched.sleep 1.0;
               Ivar.fill iv 5;
               Ivar.fill iv 6 (* ignored *)));
        ignore
          (Sched.spawn s ~name:"late" (fun () ->
               Sched.sleep 2.0;
               late := Ivar.read_timeout iv 1.0)))
  in
  Alcotest.(check int) "reader 1" 5 !a;
  Alcotest.(check int) "reader 2" 5 !b;
  Alcotest.(check (option int)) "late reader sees value" (Some 5) !late

let test_ivar_timeout () =
  let r = ref (Some 1) in
  let _ =
    run_sim (fun s ->
        let iv = Ivar.create () in
        ignore
          (Sched.spawn s ~name:"reader" (fun () ->
               r := Ivar.read_timeout iv 3.0)))
  in
  Alcotest.(check (option int)) "timed out" None !r

let test_cond_signal_broadcast () =
  let woken = ref 0 in
  let _ =
    run_sim (fun s ->
        let c = Cond.create () in
        for i = 1 to 3 do
          ignore
            (Sched.spawn s ~name:(Printf.sprintf "w%d" i) (fun () ->
                 Cond.wait c;
                 incr woken))
        done;
        ignore
          (Sched.spawn s ~name:"sig" (fun () ->
               Sched.sleep 1.0;
               Cond.signal c;
               Sched.sleep 1.0;
               Cond.broadcast c)))
  in
  Alcotest.(check int) "all woken" 3 !woken

let test_cond_wait_timeout () =
  let r = ref true in
  let _ =
    run_sim (fun s ->
        let c = Cond.create () in
        ignore
          (Sched.spawn s ~name:"w" (fun () -> r := Cond.wait_timeout c 2.0)))
  in
  Alcotest.(check bool) "timed out" false !r

let test_signal_skips_dead_waiter () =
  let ok = ref false in
  let _ =
    run_sim (fun s ->
        let c = Cond.create () in
        ignore
          (Sched.spawn s ~group:"dead" ~name:"w1" (fun () -> Cond.wait c));
        ignore
          (Sched.spawn s ~name:"w2" (fun () ->
               Cond.wait c;
               ok := true));
        Sched.at s 1.0 (fun () -> Sched.kill_group s "dead");
        Sched.at s 2.0 (fun () ->
            ignore (Sched.spawn s ~name:"sig" (fun () -> Cond.signal c))))
  in
  Alcotest.(check bool) "live waiter woken" true !ok

let test_failures_recorded () =
  let s = Sched.create () in
  ignore (Sched.spawn s ~name:"boom" (fun () -> failwith "bang"));
  Sched.run s;
  match Sched.failures s with
  | [ ("boom", Failure msg) ] when msg = "bang" -> ()
  | _ -> Alcotest.fail "expected one recorded failure"

let test_live_fibers_reports_blocked () =
  let s = Sched.create () in
  let c : int Chan.t = Chan.create () in
  ignore (Sched.spawn s ~name:"stuck" (fun () -> ignore (Chan.recv c)));
  Sched.run s;
  Alcotest.(check (list string)) "stuck fiber listed" [ "stuck" ]
    (Sched.live_fibers s)

let test_many_fibers () =
  let n = 2000 in
  let total = ref 0 in
  let _ =
    run_sim (fun s ->
        let c = Chan.create () in
        for i = 1 to n do
          ignore
            (Sched.spawn s ~name:(Printf.sprintf "p%d" i) (fun () ->
                 Sched.sleep (float_of_int (i mod 17));
                 Chan.send c i))
        done;
        ignore
          (Sched.spawn s ~name:"sum" (fun () ->
               for _ = 1 to n do
                 total := !total + Chan.recv c
               done)))
  in
  Alcotest.(check int) "all delivered" (n * (n + 1) / 2) !total

(* The scheduler prunes finished fibers from its table as it grows. Spawn
   several waves of short-lived fibers (well past the first pruning
   threshold) with one long-lived fiber per wave, then check that
   [live_fibers] still lists exactly the survivors oldest first and that
   [kill_group] still reaches every member of a group. *)
let test_pruned_fiber_table () =
  let s = Sched.create () in
  let resumed = ref [] in
  let live_at_7 = ref [] in
  let long_name w = Printf.sprintf "long%d" w in
  ignore
    (Sched.spawn s ~name:"spawner" (fun () ->
         for w = 1 to 5 do
           for i = 1 to 40 do
             ignore
               (Sched.spawn s ~name:(Printf.sprintf "short%d.%d" w i)
                  (fun () -> Sched.yield ()))
           done;
           let group = if w mod 2 = 1 then "a" else "b" in
           ignore
             (Sched.spawn s ~group ~name:(long_name w) (fun () ->
                  Sched.sleep 10.0;
                  resumed := long_name w :: !resumed));
           Sched.sleep 1.0
         done));
  Sched.at s 7.0 (fun () ->
      live_at_7 := Sched.live_fibers s;
      Sched.kill_group s "a");
  Sched.run s;
  Alcotest.(check (list (pair string pass))) "no failures" [] (Sched.failures s);
  Alcotest.(check (list string)) "survivors, oldest first"
    (List.init 5 (fun i -> long_name (i + 1)))
    !live_at_7;
  Alcotest.(check (list string)) "only group b resumed" [ "long2"; "long4" ]
    (List.rev !resumed);
  Alcotest.(check (list string)) "nothing left" [] (Sched.live_fibers s)

let timer_fired trace =
  List.filter_map
    (function Sched.Timer_fired seq -> Some seq | Sched.Pick _ | Sched.Fault _ -> None)
    (Array.to_list trace)

(* A deadline whose waker is woken first leaves the timer heap: it never
   fires, yet the run still ends where the timer would have left the clock.
   Background timers up to that point fire as before, and the run ends. *)
let test_removed_deadline () =
  let got = ref None and ticks = ref 0 in
  let s =
    run_sim (fun s ->
        let iv = Ivar.create () in
        ignore
          (Sched.spawn s ~name:"reader" (fun () ->
               (* timer seq 1 *)
               let v = Ivar.read_timeout iv 5.0 in
               got := Some (v, Sched.clock ())));
        ignore
          (Sched.spawn s ~name:"filler" (fun () ->
               (* timer seq 2 *)
               Sched.sleep 1.0;
               Ivar.fill iv 7));
        ignore
          (Sched.spawn s ~name:"daemon" (fun () ->
               while true do
                 Sched.sleep_background 0.5;
                 incr ticks
               done)))
  in
  Alcotest.(check (option (pair (option int) (float 1e-9))))
    "filled at 1.0" (Some (Some 7, 1.0)) !got;
  Alcotest.(check bool) "deadline never fired" false
    (List.mem 1 (timer_fired (Sched.trace s)));
  Alcotest.(check bool) "sleep timer fired" true (List.mem 2 (timer_fired (Sched.trace s)));
  Alcotest.(check (float 1e-9)) "run ends at the removed deadline" 5.0 (Sched.now s);
  (* Ticks at 0.5 .. 4.5; the one at 5.0 was armed after the deadline, so
     it sorts after it and stays queued, as it did when the deadline fired. *)
  Alcotest.(check int) "background ticks up to the horizon" 9 !ticks;
  Alcotest.(check (list string)) "only the daemon is left" [ "daemon" ] (Sched.live_fibers s)

let test_removed_deadlines_cond_chan () =
  let cond_r = ref false and chan_r = ref None in
  let s =
    run_sim (fun s ->
        let c = Cond.create () and ch = Chan.create () in
        ignore (Sched.spawn s ~name:"cw" (fun () -> cond_r := Cond.wait_timeout c 4.0));
        ignore (Sched.spawn s ~name:"rw" (fun () -> chan_r := Chan.recv_timeout ch 6.0));
        ignore
          (Sched.spawn s ~name:"waker" (fun () ->
               Sched.sleep 1.0;
               Cond.signal c;
               Sched.sleep 1.0;
               Chan.send ch 3)))
  in
  Alcotest.(check bool) "signalled" true !cond_r;
  Alcotest.(check (option int)) "received" (Some 3) !chan_r;
  Alcotest.(check int) "only the two sleeps fired" 2
    (List.length (timer_fired (Sched.trace s)));
  Alcotest.(check (float 1e-9)) "ends at the later deadline" 6.0 (Sched.now s)

(* [in_fiber], [self] and [clock] read the running-fiber slot: set while a
   fiber runs, clear in scheduler context, restored around a nested run. *)
let test_running_fiber_slot () =
  let raises f = match f () with _ -> false | exception Effect.Unhandled _ -> true in
  Alcotest.(check bool) "clock raises outside a fiber" true (raises Sched.clock);
  Alcotest.(check bool) "self raises outside a fiber" true
    (raises (fun () -> ignore (Sched.self ())));
  Alcotest.(check bool) "not in a fiber" false (Sched.in_fiber ());
  let in_timer = ref true and in_register = ref true and in_body = ref false in
  let nested = ref [] in
  let s = Sched.create () in
  Sched.at s 1.0 (fun () -> in_timer := Sched.in_fiber ());
  ignore
    (Sched.spawn s ~name:"outer" (fun () ->
         in_body := Sched.in_fiber ();
         Sched.suspend (fun sched w ->
             in_register := Sched.in_fiber ();
             Sched.at sched 2.0 (fun () -> ignore (Sched.wake w ())));
         let me = Sched.self () in
         let inner = Sched.create () in
         ignore
           (Sched.spawn inner ~name:"inner" (fun () ->
                Sched.sleep 10.0;
                nested := [ Sched.fiber_name (Sched.self ()); string_of_float (Sched.clock ()) ]));
         Sched.run inner;
         nested :=
           !nested
           @ [
               string_of_bool (Sched.in_fiber ());
               string_of_bool (Sched.self () == me);
               string_of_float (Sched.clock ());
             ]));
  Sched.run s;
  Alcotest.(check (list (pair string pass))) "no failures" [] (Sched.failures s);
  Alcotest.(check bool) "true in a fiber" true !in_body;
  Alcotest.(check bool) "false in a timer callback" false !in_timer;
  Alcotest.(check bool) "false in a registration callback" false !in_register;
  Alcotest.(check (list string)) "nested run: inner slot, then outer restored"
    [ "inner"; "10."; "true"; "true"; "2." ] !nested;
  Alcotest.(check bool) "clear after run" false (Sched.in_fiber ())

(* Clock queries inside a fiber are plain loads: no allocation per call.
   Performing an effect for each costs 8 minor words. *)
let test_clock_allocation () =
  let n = 10_000 in
  let per_call = ref nan in
  let _ =
    run_sim (fun s ->
        ignore
          (Sched.spawn s ~name:"probe" (fun () ->
               let measure f =
                 let w0 = Gc.minor_words () in
                 for _ = 1 to n do
                   f ()
                 done;
                 Gc.minor_words () -. w0
               in
               let base = measure (fun () -> ignore (Sys.opaque_identity 0.0)) in
               let used =
                 measure (fun () ->
                     ignore (Sys.opaque_identity (Sched.clock ()));
                     ignore (Sys.opaque_identity (Sched.in_fiber ())))
               in
               per_call := (used -. base) /. float_of_int (2 * n))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "clock/in_fiber allocate nothing (%.2f words/call)" !per_call)
    true (!per_call < 0.5)

(* Fiber start shares one effect handler: a spawned fiber costs its record,
   its table cell and its ready-queue thunk, not a handler record and three
   closures of its own (42 words per spawn when each start built them). *)
let test_spawn_allocation () =
  let n = 10_000 in
  let s = Sched.create () in
  let body () = () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sched.spawn s ~name:"w" body)
  done;
  Sched.run s;
  let per_spawn = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "spawn and run to completion under 30 words (%.2f words/spawn)" per_spawn)
    true (per_spawn < 30.0)

(* The packed trace round-trips tokens of every length, and a live trace
   keeps exactly [trace_limit] decisions, the prefix of the full one. *)
let test_packed_trace () =
  let ds =
    [|
      Sched.Pick 0; Sched.Pick 0; Sched.Pick 0; Sched.Pick 31; Sched.Pick 32;
      Sched.Timer_fired (1 lsl 13); Sched.Timer_fired 5; Sched.Pick (1 lsl 27);
      Sched.Timer_fired (max_int lsr 1);
    |]
  in
  let packed = Sched.pack_trace ds in
  (* A run of three [Pick 0] is one token. Payloads: 3, 31, 32, zigzag
     deltas 2^14 and 16373, 2^27, then 2^62 - 12: five bits in the first
     byte, seven in each later one. *)
  Alcotest.(check int) "token lengths" (1 + 1 + 2 + 3 + 3 + 5 + 10) (String.length packed);
  Alcotest.(check string) "roundtrip" (Sched.trace_to_string ds)
    (Sched.trace_to_string (Sched.unpack_trace packed));
  Alcotest.(check int) "a FIFO run of 1000 picks is two bytes" 2
    (String.length (Sched.pack_trace (Array.make 1000 (Sched.Pick 0))));
  Alcotest.check_raises "faults are not packed"
    (Invalid_argument "Sched.pack_trace: fault notes are not packed") (fun () ->
      ignore (Sched.pack_trace [| Sched.Fault "x" |]));
  Alcotest.check_raises "cut-short varint"
    (Invalid_argument "Sched.unpack_trace: truncated varint") (fun () ->
      ignore (Sched.unpack_trace (String.sub packed 0 (String.length packed - 1))));
  Alcotest.check_raises "unknown token"
    (Invalid_argument "Sched.unpack_trace: unknown token") (fun () ->
      ignore (Sched.unpack_trace "\003"));
  (* Timer seqs past 2^14 and, under random priority, picks past 2^6, so
     multi-byte codes occur in a live trace. *)
  let program ?trace_limit policy =
    let s = Sched.create ~policy ?trace_limit () in
    for i = 1 to 300 do
      ignore (Sched.spawn s ~name:"p" (fun () -> Sched.sleep (float_of_int (i mod 7))))
    done;
    ignore
      (Sched.spawn s ~name:"ticker" (fun () ->
           for _ = 1 to 20_000 do
             Sched.sleep 0.001
           done));
    Sched.run s;
    Sched.note_fault s "late";
    s
  in
  let full = program (Sched.Random_priority 5) in
  let trace = Sched.trace full in
  Alcotest.(check bool) "full trace kept" false (Sched.trace_truncated full);
  Alcotest.(check bool) "large timer seq" true (List.mem 20_000 (timer_fired trace));
  Alcotest.(check bool) "multi-byte pick" true
    (Array.exists (function Sched.Pick i -> i >= 64 | _ -> false) trace);
  Alcotest.(check bool) "fault spliced last" true
    (trace.(Array.length trace - 1) = Sched.Fault "late");
  let limit = 25_000 in
  let cut = program ~trace_limit:limit (Sched.Random_priority 5) in
  let kept = Sched.trace cut in
  Alcotest.(check bool) "truncated" true (Sched.trace_truncated cut);
  Alcotest.(check string) "prefix of the full trace, then the fault"
    (Sched.trace_to_string (Array.append (Array.sub trace 0 limit) [| Sched.Fault "late" |]))
    (Sched.trace_to_string kept);
  let exact = program ~trace_limit:(Array.length trace - 1) (Sched.Random_priority 5) in
  Alcotest.(check bool) "limit = decisions is not truncated" false
    (Sched.trace_truncated exact);
  let replayed = program (Sched.Replay trace) in
  Alcotest.(check string) "replay re-records the same trace"
    (Sched.trace_to_string trace) (Sched.trace_to_string (Sched.trace replayed))

(* A live trace that fills several 4 KiB chunks under random priority,
   with picks past 0 and timers that fire out of sequence order (negative
   deltas), replays to the same outcome. *)
let test_live_trace_chunks () =
  let program policy =
    let s = Sched.create ~policy () in
    let order = ref [] in
    for i = 1 to 5_000 do
      ignore
        (Sched.spawn s ~name:"w" (fun () ->
             Sched.sleep (float_of_int ((i * 7919) mod 13));
             Sched.yield ();
             order := i :: !order))
    done;
    Sched.run s;
    (s, List.rev !order)
  in
  let s, order = program (Sched.Random_priority 11) in
  let trace = Sched.trace s in
  let bytes = String.length (Sched.pack_trace trace) in
  Alcotest.(check bool) (Printf.sprintf "several chunks (%d bytes)" bytes) true
    (bytes > 3 * 4096);
  Alcotest.(check bool) "picks past 0" true
    (Array.exists (function Sched.Pick i -> i > 0 | _ -> false) trace);
  let rec has_drop = function
    | a :: (b :: _ as rest) -> b < a || has_drop rest
    | _ -> false
  in
  Alcotest.(check bool) "negative timer deltas" true (has_drop (timer_fired trace));
  Alcotest.(check string) "pack/unpack keeps the live trace"
    (Sched.trace_to_string trace)
    (Sched.trace_to_string (Sched.unpack_trace (Sched.pack_trace trace)));
  let r, replayed_order = program (Sched.Replay trace) in
  Alcotest.(check (list int)) "replay: same completion order" order replayed_order;
  Alcotest.(check string) "replay: same trace" (Sched.trace_to_string trace)
    (Sched.trace_to_string (Sched.trace r));
  Alcotest.(check (float 0.0)) "replay: same end time" (Sched.now s) (Sched.now r)

let suite =
  [
    Alcotest.test_case "sleep ordering" `Quick test_sleep_order;
    Alcotest.test_case "virtual time" `Quick test_virtual_time;
    Alcotest.test_case "chan fifo" `Quick test_chan_fifo;
    Alcotest.test_case "chan timeout" `Quick test_chan_timeout;
    Alcotest.test_case "timed-out waiter yields message" `Quick
      test_timed_out_waiter_does_not_eat_message;
    Alcotest.test_case "kill group" `Quick test_kill_group;
    Alcotest.test_case "kill before first run" `Quick test_kill_before_first_run;
    Alcotest.test_case "fork inherits group" `Quick test_fork_inherits_group;
    Alcotest.test_case "ivar" `Quick test_ivar;
    Alcotest.test_case "ivar timeout" `Quick test_ivar_timeout;
    Alcotest.test_case "cond signal/broadcast" `Quick test_cond_signal_broadcast;
    Alcotest.test_case "cond wait timeout" `Quick test_cond_wait_timeout;
    Alcotest.test_case "signal skips dead waiter" `Quick
      test_signal_skips_dead_waiter;
    Alcotest.test_case "fiber failures recorded" `Quick test_failures_recorded;
    Alcotest.test_case "live fibers reports blocked" `Quick
      test_live_fibers_reports_blocked;
    Alcotest.test_case "many fibers" `Quick test_many_fibers;
    Alcotest.test_case "pruned fiber table" `Quick test_pruned_fiber_table;
    Alcotest.test_case "removed deadline" `Quick test_removed_deadline;
    Alcotest.test_case "removed deadlines: cond, chan" `Quick
      test_removed_deadlines_cond_chan;
    Alcotest.test_case "running-fiber slot" `Quick test_running_fiber_slot;
    Alcotest.test_case "clock allocation bound" `Quick test_clock_allocation;
    Alcotest.test_case "spawn allocation bound" `Quick test_spawn_allocation;
    Alcotest.test_case "packed trace" `Quick test_packed_trace;
    Alcotest.test_case "live trace across chunks" `Quick test_live_trace_chunks;
  ]

let () = Alcotest.run "rrq-sim" [ ("sched", suite) ]
