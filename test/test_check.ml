(* The simulation-testing subsystem, tested on itself:

   - scheduling policies: randomized priorities really explore different
     interleavings, and both policies are deterministic per seed;
   - decision traces: record/replay reproduces a run event-for-event, and
     the trace and plan codecs round-trip;
   - the explorer: >= 200 schedules on the correct protocol pass every
     auditor, and the intentionally buggy clerk (untagged blind re-Send) is
     caught and shrunk to a minimal still-failing plan;
   - the crash-site enumerator: every (site, hit) combination of the
     quickstart world recovers cleanly, and every scenario's sweep crashes
     its own world;
   - the HA pair: >= 200 random fault plans (primary kills, client
     partitions) pass every auditor through failover, the lag-buggy
     shipper is caught and shrunk, and killing the primary at every
     replication crash site (ship and ha prefixes) fails over cleanly;
   - the sharded world: >= 200 random fault plans (shard kills,
     client/shard and shard/shard partitions) across a mid-run shard-map
     change pass every auditor, the tag-stripping forwarder (the designed
     misroute-during-map-change anomaly) is caught and shrunk, and killing
     the reaching shard at every shard./wal./tm. crash site recovers to a
     clean audit. *)

module Sched = Rrq_sim.Sched
module C = Rrq_check
module Obs = Rrq_obs

(* ---- scheduling policies ------------------------------------------------ *)

(* Five fibers, each yielding between appends: the execution order is the
   scheduler's choice and nothing else. *)
let interleaving policy =
  let order = ref [] in
  let s = Sched.create ~policy () in
  for i = 0 to 4 do
    ignore
      (Sched.spawn s ~name:(Printf.sprintf "f%d" i) (fun () ->
           for step = 0 to 2 do
             order := (i, step) :: !order;
             Sched.yield ()
           done))
  done;
  Sched.run s;
  (List.rev !order, s)

let test_policies () =
  let fifo, _ = interleaving Sched.Fifo in
  let rand1, _ = interleaving (Sched.Random_priority 7) in
  let rand1', _ = interleaving (Sched.Random_priority 7) in
  let rand2, _ = interleaving (Sched.Random_priority 8) in
  Alcotest.(check bool)
    "random priorities change the interleaving" true (fifo <> rand1);
  Alcotest.(check bool) "same seed, same interleaving" true (rand1 = rand1');
  Alcotest.(check bool)
    "different seeds explore differently" true (rand1 <> rand2)

let test_trace_replay () =
  let original, s = interleaving (Sched.Random_priority 42) in
  Alcotest.(check bool) "trace not truncated" false (Sched.trace_truncated s);
  let trace = Sched.trace s in
  Alcotest.(check bool) "trace is non-trivial" true (Array.length trace > 10);
  let replayed, s' = interleaving (Sched.Replay trace) in
  Alcotest.(check bool)
    "replay reproduces the event order" true (original = replayed);
  Alcotest.(check string) "replay re-records the same trace"
    (Sched.trace_to_string trace)
    (Sched.trace_to_string (Sched.trace s'))

let test_trace_codec () =
  List.iter
    (fun d ->
      Alcotest.(check string) "decision roundtrip"
        (Sched.decision_to_string d)
        (Sched.decision_to_string
           (Sched.decision_of_string (Sched.decision_to_string d))))
    [ Sched.Pick 0; Sched.Pick 31; Sched.Timer_fired 17; Sched.Fault "crash b" ];
  let _, s = interleaving (Sched.Random_priority 3) in
  Sched.note_fault s "synthetic";
  let t = Sched.trace s in
  Alcotest.(check string) "trace roundtrip" (Sched.trace_to_string t)
    (Sched.trace_to_string (Sched.trace_of_string (Sched.trace_to_string t)))

(* A livelock's step-limit failure must name the spinning fibers and the
   recent decisions, so it is diagnosable from test output alone. *)
let test_step_limit_diagnostics () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s ~name:"spinner-a" (fun () ->
         while true do
           Sched.yield ()
         done));
  ignore
    (Sched.spawn s ~name:"spinner-b" (fun () ->
         while true do
           Sched.yield ()
         done));
  match Sched.run ~max_steps:200 s with
  | () -> Alcotest.fail "expected a step-limit failure"
  | exception Failure msg ->
    let contains needle =
      let nl = String.length needle and ml = String.length msg in
      let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the live fibers" true (contains "spinner-a");
    Alcotest.(check bool) "both of them" true (contains "spinner-b");
    Alcotest.(check bool) "shows recent decisions" true (contains "decisions")

(* ---- plan codec --------------------------------------------------------- *)

let profile = C.Scenario.profile C.Scenario.quickstart

let test_plan_codec () =
  for seed = 1 to 50 do
    let plan = C.Plan.random ~seed ~profile in
    let back = C.Plan.of_string (C.Plan.to_string plan) in
    Alcotest.(check string)
      (Printf.sprintf "plan %d roundtrips" seed)
      (C.Plan.to_string plan) (C.Plan.to_string back);
    Alcotest.(check bool)
      (Printf.sprintf "plan %d equal after roundtrip" seed)
      true (plan = back)
  done

(* ---- the explorer on the correct protocol ------------------------------- *)

let test_explore_correct () =
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.quickstart in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* ---- the explorer on the buggy clerk ------------------------------------ *)

let test_explore_buggy_and_shrink () =
  let report = C.Explore.run ~budget:100 ~seed:1 C.Scenario.buggy_clerk in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "explorer failed to catch the buggy clerk"
  in
  Alcotest.(check bool) "the failing outcome has findings" true
    (f.C.Explore.outcome.C.Scenario.findings <> []);
  let minimal = C.Explore.minimal_plan f in
  Alcotest.(check bool) "shrunk plan is no larger" true
    (List.length minimal.C.Plan.faults <= List.length f.C.Explore.plan.C.Plan.faults);
  (* The minimized plan must still fail... *)
  let o = C.Scenario.run C.Scenario.buggy_clerk minimal in
  Alcotest.(check bool) "minimal plan still fails" true (C.Scenario.failed o);
  (* ... and be minimal under single-fault removal. *)
  List.iteri
    (fun i _ ->
      let without =
        {
          minimal with
          C.Plan.faults = List.filteri (fun j _ -> j <> i) minimal.C.Plan.faults;
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "dropping fault %d makes it pass" i)
        false
        (C.Scenario.failed (C.Scenario.run C.Scenario.buggy_clerk without)))
    minimal.C.Plan.faults;
  (* The printed repro must parse back to the minimal plan. *)
  let line = C.Explore.repro_line "buggy" minimal in
  Alcotest.(check bool) "repro line carries the plan" true
    (String.length line > String.length (C.Plan.to_string minimal))

(* A scenario run is a pure function of its plan: same plan, same outcome,
   same decision trace. *)
let test_outcome_determinism () =
  let plan = C.Explore.plan_of_index C.Scenario.quickstart ~seed:5 3 in
  let o1 = C.Scenario.run C.Scenario.quickstart plan in
  let o2 = C.Scenario.run C.Scenario.quickstart plan in
  Alcotest.(check string) "same findings"
    (C.Audit.findings_to_string o1.C.Scenario.findings)
    (C.Audit.findings_to_string o2.C.Scenario.findings);
  Alcotest.(check int) "same replies" o1.C.Scenario.replies o2.C.Scenario.replies;
  Alcotest.(check (float 0.0)) "same virtual time" o1.C.Scenario.virtual_time
    o2.C.Scenario.virtual_time;
  Alcotest.(check string) "same decision trace"
    (Sched.trace_to_string o1.C.Scenario.trace)
    (Sched.trace_to_string o2.C.Scenario.trace)

(* Replaying a recorded trace through the Replay policy reproduces the
   identical audit outcome — on a failing schedule of the buggy clerk. *)
let test_replay_reproduces_failure () =
  let report = C.Explore.run ~budget:100 ~seed:1 ~shrink_failures:false C.Scenario.buggy_clerk in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "no failure to replay"
  in
  let o1 = f.C.Explore.outcome in
  Alcotest.(check bool) "trace replayable" false o1.C.Scenario.trace_truncated;
  let o2 =
    C.Scenario.run ~policy:(Sched.Replay o1.C.Scenario.trace)
      C.Scenario.buggy_clerk f.C.Explore.plan
  in
  Alcotest.(check string) "replay reproduces the audit result"
    (C.Audit.findings_to_string o1.C.Scenario.findings)
    (C.Audit.findings_to_string o2.C.Scenario.findings);
  Alcotest.(check int) "replay reproduces the replies" o1.C.Scenario.replies
    o2.C.Scenario.replies;
  Alcotest.(check string) "replay re-records the identical trace"
    (Sched.trace_to_string o1.C.Scenario.trace)
    (Sched.trace_to_string o2.C.Scenario.trace)

(* ---- the crash-site enumerator ------------------------------------------ *)

let starts_with prefix site =
  String.length site >= String.length prefix
  && String.sub site 0 (String.length prefix) = prefix

let has_prefix prefixes site = List.exists (fun p -> starts_with p site) prefixes

(* Crash [scenario] at every reach of every probed site that [only] keeps.
   Returns the probed sites, the number of (site, hit) runs and the
   failing ones. *)
let sweep ?(only = fun _ -> true) ?victim ~recover_after scenario =
  let visited = C.Scenario.crash_sites scenario in
  let failures = ref [] in
  let combos = ref 0 in
  List.iter
    (fun (site, hits) ->
      if only site then
        for hit = 1 to hits do
          incr combos;
          let o =
            C.Scenario.crash_at ?victim scenario ~site ~hit ~recover_after
          in
          if C.Scenario.failed o then
            failures :=
              Printf.sprintf "%s hit %d: %s" site hit
                (C.Audit.findings_to_string o.C.Scenario.findings)
              :: !failures
        done)
    visited;
  (visited, !combos, List.rev !failures)

let test_crash_site_sweep () =
  let visited, combos, failures =
    sweep ~recover_after:1.0 C.Scenario.quickstart
  in
  let has prefix = List.exists (fun (site, _) -> starts_with prefix site) visited in
  Alcotest.(check bool) "probe found WAL sync sites" true (has "wal.sync:");
  Alcotest.(check bool) "probe found 2PC decision sites" true (has "tm.");
  Alcotest.(check bool) "probe found clerk sites" true (has "clerk.");
  Alcotest.(check bool) "probe found the server commit site" true
    (has "server.handled:req");
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial site space (%d combos)" combos)
    true (combos >= 50);
  Alcotest.(check (list string)) "every crash point recovered cleanly" []
    failures

(* Every scenario's crash sweep crashes its own world: the probe reaches
   sites, and an armed run at the first of them leaves its crash note in
   that world's decision trace. For [ha], a crash at [ship.sent] — a site
   only the HA world has — must fire there. *)
let crash_noted site (o : C.Scenario.outcome) =
  Array.exists
    (function
      | Sched.Fault note -> starts_with ("crashpoint " ^ site ^ " ") note
      | _ -> false)
    o.C.Scenario.trace

let test_sweeps_crash_their_own_world () =
  List.iter
    (fun s ->
      let name = C.Scenario.name s in
      match C.Scenario.crash_sites s with
      | [] -> Alcotest.failf "%s: the probe reached no crash site" name
      | (site, _) :: _ ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: crash at %s hit 1 is in the trace" name site)
          true
          (crash_noted site
             (C.Scenario.crash_at s ~site ~hit:1 ~recover_after:1.0)))
    C.Scenario.all;
  Alcotest.(check bool) "ha: ship.sent fires in the HA world" true
    (crash_noted "ship.sent"
       (C.Scenario.crash_at C.Scenario.ha ~site:"ship.sent" ~hit:1
          ~recover_after:1.0))

(* ---- main-memory queue mode under crash sweeps --------------------------- *)

(* The redo-only recovery claim behind the main-memory fast path: with the
   request queue in [Main_memory] durability, element payload and order
   live purely in memory, only redo records hit the WAL, and recovery
   rebuilds queue state from the redo scan. Crashing at every WAL sync
   boundary (before and after the force) and every 2PC decision point must
   still leave exactly-once intact — the same invariant the stable sweep
   checks, now with no stable queue image to fall back on. *)
let mm_swept_prefixes = [ "wal.sync:"; "wal.synced:"; "tm.prepared"; "tm.decided" ]

let test_mm_crash_sweep () =
  let visited, combos, failures =
    sweep ~only:(has_prefix mm_swept_prefixes) ~recover_after:1.0
      C.Scenario.quickstart_mm
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "probe reaches %s sites in mm mode" p)
        true
        (List.exists (fun (site, _) -> starts_with p site) visited))
    mm_swept_prefixes;
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial mm site space (%d combos)" combos)
    true (combos >= 20);
  Alcotest.(check (list string))
    "every mm crash point recovered to exactly-once" [] failures

(* The explorer over the mm scenario: random fault plans (crashes,
   partitions, delays) against the main-memory queue must pass every
   auditor, same as the stable quickstart. *)
let test_mm_explore () =
  (match C.Scenario.by_name "quickstart-mm" with
  | Some s -> Alcotest.(check string) "registered" "quickstart-mm" (C.Scenario.name s)
  | None -> Alcotest.fail "quickstart-mm not in the scenario registry");
  let report = C.Explore.run ~budget:100 ~seed:2 C.Scenario.quickstart_mm in
  Alcotest.(check int) "explored the whole budget" 100 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 100 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* ---- the HA pair under the explorer and the crash-site enumerator -------- *)

(* The explorer over the HA scenario: random plans drawn from a fault space
   that kills the primary and partitions it from the client. Synchronous
   shipping gates every reply on the backup's ack, so every schedule must
   pass all five auditors through whatever failover the plan provokes. *)
let test_ha_explore () =
  (match C.Scenario.by_name "ha" with
  | Some s -> Alcotest.(check string) "registered" "ha" (C.Scenario.name s)
  | None -> Alcotest.fail "ha not in the scenario registry");
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.ha in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* The lag-buggy shipper ([Lagged 1.0]: replies released up to a second
   ahead of the backup). Fault-free it passes; the explorer must catch a
   primary kill inside the lag window — the promoted backup either never
   saw an acknowledged conversation or re-runs one whose reply already
   escaped — and ddmin must shrink the plan to one that still fails. *)
let test_ha_lagged_caught_and_shrunk () =
  (match C.Scenario.by_name "ha-lagged" with
  | Some s -> Alcotest.(check string) "registered" "ha-lagged" (C.Scenario.name s)
  | None -> Alcotest.fail "ha-lagged not in the scenario registry");
  let clean = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  Alcotest.(check bool) "fault-free lagged run passes" false
    (C.Scenario.failed (C.Scenario.run C.Scenario.ha_lagged clean));
  let report = C.Explore.run ~budget:100 ~seed:1 C.Scenario.ha_lagged in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "explorer failed to catch the lagged shipper"
  in
  Alcotest.(check bool) "the failing outcome has findings" true
    (f.C.Explore.outcome.C.Scenario.findings <> []);
  let minimal = C.Explore.minimal_plan f in
  Alcotest.(check bool) "shrunk plan is no larger" true
    (List.length minimal.C.Plan.faults
    <= List.length f.C.Explore.plan.C.Plan.faults);
  let o = C.Scenario.run C.Scenario.ha_lagged minimal in
  Alcotest.(check bool) "minimal plan still fails" true (C.Scenario.failed o);
  let line = C.Explore.repro_line "ha-lagged" minimal in
  Alcotest.(check bool) "repro line carries the plan" true
    (String.length line > String.length (C.Plan.to_string minimal))

(* Crash-site sweep over the replication machinery: kill the primary at
   every reach of every ship- and ha-prefixed site the probe discovers (the probe
   plan itself kills the primary at t=2, so the heartbeat-miss/promote
   path is on the map). Whatever the timing — batch shipped but unacked,
   ack in flight, mid-promotion — the audited outcome must be clean. *)
let ha_swept_prefixes = [ "ship."; "ha." ]

let test_ha_crash_site_sweep () =
  let visited, combos, failures =
    sweep ~only:(has_prefix ha_swept_prefixes) ~victim:"primary"
      ~recover_after:4.0 C.Scenario.ha
  in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "probe reaches %s" site)
        true (List.mem_assoc site visited))
    [ "ship.sent"; "ship.applied"; "ha.heartbeat_miss"; "ha.promote" ];
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial replication site space (%d combos)"
       combos)
    true (combos >= 50);
  Alcotest.(check (list string))
    "every replication crash point failed over cleanly" [] failures

(* ---- the sharded multi-repository world --------------------------------- *)

(* The explorer over the sharded scenario: three shard repositories, a
   mid-run map change that moves every client's key off shard0, forwarding,
   registration pulls and cross-shard 2PC reply enqueues — under random
   crash/partition plans that kill any shard and cut shard/shard links
   (including mid-2PC). Every schedule must pass exactly-once, conservation
   summed across shards, queue-integrity and no-in-doubt. *)
let test_sharded_explore () =
  (match C.Scenario.by_name "sharded" with
  | Some s -> Alcotest.(check string) "registered" "sharded" (C.Scenario.name s)
  | None -> Alcotest.fail "sharded not in the scenario registry");
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.sharded in
  Alcotest.(check int) "explored the whole budget" 200 report.C.Explore.explored;
  Alcotest.(check int) "every schedule passed" 200 report.C.Explore.passed;
  Alcotest.(check bool) "no failure" true (report.C.Explore.failure = None)

(* The designed misroute-during-map-change anomaly: forwarders that strip
   registration tags. Fault-free every request is forwarded at most once and
   nothing retries, so it passes; a fault that costs an acknowledgment
   around the map change makes the stale-pinned retry execute a second,
   untagged copy at the new owner. The explorer must catch the duplicate
   and ddmin must shrink the plan to a still-failing core. *)
let test_sharded_anomaly_caught_and_shrunk () =
  (match C.Scenario.by_name "sharded-buggy" with
  | Some s ->
    Alcotest.(check string) "registered" "sharded-buggy" (C.Scenario.name s)
  | None -> Alcotest.fail "sharded-buggy not in the scenario registry");
  let clean = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  Alcotest.(check bool) "fault-free buggy run passes" false
    (C.Scenario.failed (C.Scenario.run C.Scenario.sharded_buggy clean));
  let report = C.Explore.run ~budget:200 ~seed:1 C.Scenario.sharded_buggy in
  let f =
    match report.C.Explore.failure with
    | Some f -> f
    | None -> Alcotest.fail "explorer failed to catch the untagging forwarder"
  in
  Alcotest.(check bool) "the failing outcome has findings" true
    (f.C.Explore.outcome.C.Scenario.findings <> []);
  let minimal = C.Explore.minimal_plan f in
  Alcotest.(check bool) "shrunk plan is no larger" true
    (List.length minimal.C.Plan.faults
    <= List.length f.C.Explore.plan.C.Plan.faults);
  let o = C.Scenario.run C.Scenario.sharded_buggy minimal in
  Alcotest.(check bool) "minimal plan still fails" true (C.Scenario.failed o);
  (* ... and is minimal under single-fault removal. *)
  List.iteri
    (fun i _ ->
      let without =
        {
          minimal with
          C.Plan.faults = List.filteri (fun j _ -> j <> i) minimal.C.Plan.faults;
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "dropping fault %d makes it pass" i)
        false
        (C.Scenario.failed (C.Scenario.run C.Scenario.sharded_buggy without)))
    minimal.C.Plan.faults;
  let line = C.Explore.repro_line "sharded-buggy" minimal in
  Alcotest.(check bool) "repro line carries the plan" true
    (String.length line > String.length (C.Plan.to_string minimal))

(* Crash-site sweep across the routing machinery AND each shard's own WAL
   and 2PC sites (their names embed the shard node, so the victim is the
   shard that reached the site). The fault-free probe still performs the
   map change, so shard.forward (stale-pin relays), shard.map_install and
   cross-shard tm.prepared/tm.decided are all on the map. *)
let shard_swept_prefixes = [ "shard."; "wal."; "tm." ]

let test_sharded_crash_site_sweep () =
  let visited, combos, failures =
    sweep ~only:(has_prefix shard_swept_prefixes) ~recover_after:1.0
      C.Scenario.sharded
  in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "probe reaches %s" site)
        true (List.mem_assoc site visited))
    [
      "shard.route:shard0";
      "shard.route:shard1";
      "shard.route:shard2";
      "shard.forward:shard0";
      "shard.map_install:shard0";
      "shard.map_install:shard1";
      "shard.map_install:shard2";
      "tm.prepared:shard1";
      "wal.sync:qm@shard2.qmlog";
    ];
  Alcotest.(check bool)
    (Printf.sprintf "swept a substantial shard site space (%d combos)" combos)
    true (combos >= 100);
  Alcotest.(check (list string)) "every shard crash point recovered cleanly" []
    failures

(* ---- recorded runs: the observability layer under the checker ----------- *)

(* A recorded fault-free run must produce a non-empty trace that the
   trace-based exactly-once auditor validates from events alone (it joins
   the outcome's findings in [run_recorded]). *)
let test_recorded_fault_free () =
  let plan = C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[] in
  let r = C.Scenario.run_recorded C.Scenario.quickstart plan in
  let o = r.C.Scenario.rec_outcome in
  Alcotest.(check string) "all auditors passed, including exactly-once-trace"
    "all auditors passed"
    (C.Audit.findings_to_string o.C.Scenario.findings);
  Alcotest.(check bool) "trace dump is non-empty" true
    (String.length r.C.Scenario.rec_trace > 0);
  (* Every dumped line is a well-formed JSON-lines record. *)
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' r.C.Scenario.rec_trace)
  in
  Alcotest.(check bool) "a real run emits many events" true
    (List.length lines > 50);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  (* The registry snapshot carries the headline counters. *)
  let m = r.C.Scenario.rec_metrics in
  Alcotest.(check bool) "counted client requests" true
    (Obs.Metrics.find_counter m "qm.enqueues:qm@backend" >= 4);
  Alcotest.(check bool) "counted transaction commits" true
    (Obs.Metrics.find_counter m "tm.commits:backend" >= 4)

(* Recording is passive: the same fault plan recorded twice yields
   byte-identical metric and trace dumps — on a faulty schedule too. *)
let test_recorded_determinism () =
  let plans =
    C.Plan.make ~seed:0 ~policy:`Fifo ~faults:[]
    :: List.map (fun seed -> C.Plan.random ~seed ~profile) [ 3; 11 ]
  in
  List.iter
    (fun plan ->
      let r1 = C.Scenario.run_recorded C.Scenario.quickstart plan in
      let r2 = C.Scenario.run_recorded C.Scenario.quickstart plan in
      let label = C.Plan.to_string plan in
      Alcotest.(check string)
        (Printf.sprintf "byte-identical trace dump [%s]" label)
        r1.C.Scenario.rec_trace r2.C.Scenario.rec_trace;
      Alcotest.(check bool)
        (Printf.sprintf "trace non-empty [%s]" label)
        true
        (String.length r1.C.Scenario.rec_trace > 0);
      Alcotest.(check string)
        (Printf.sprintf "byte-identical metrics JSON [%s]" label)
        (Obs.Metrics.to_json r1.C.Scenario.rec_metrics)
        (Obs.Metrics.to_json r2.C.Scenario.rec_metrics))
    plans

(* Recording must not perturb the schedule: the un-recorded run of the
   same plan takes the identical decision sequence. *)
let test_recording_is_passive () =
  let plan = C.Plan.random ~seed:7 ~profile in
  let bare = C.Scenario.run C.Scenario.quickstart plan in
  let recorded = C.Scenario.run_recorded C.Scenario.quickstart plan in
  Alcotest.(check string) "same decision trace with recording on"
    (Sched.trace_to_string bare.C.Scenario.trace)
    (Sched.trace_to_string recorded.C.Scenario.rec_outcome.C.Scenario.trace);
  Alcotest.(check int) "same replies"
    bare.C.Scenario.replies
    recorded.C.Scenario.rec_outcome.C.Scenario.replies

(* ---- property: auditors hold under arbitrary small fault schedules ------ *)

let prop_quickstart_audits_hold =
  QCheck2.Test.make ~name:"quickstart passes all auditors under random plans"
    ~count:25
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let base = C.Plan.random ~seed ~profile in
      List.for_all
        (fun policy ->
          let plan = { base with C.Plan.policy } in
          let o = C.Scenario.run C.Scenario.quickstart plan in
          if C.Scenario.failed o then
            QCheck2.Test.fail_reportf "plan %s: %s" (C.Plan.to_string plan)
              (C.Audit.findings_to_string o.C.Scenario.findings)
          else true)
        [ `Fifo; `Random (seed * 31) ])

let () =
  Alcotest.run "rrq-check"
    [
      ( "sched",
        [
          Alcotest.test_case "scheduling policies" `Quick test_policies;
          Alcotest.test_case "trace record/replay" `Quick test_trace_replay;
          Alcotest.test_case "trace codec" `Quick test_trace_codec;
          Alcotest.test_case "step-limit diagnostics" `Quick
            test_step_limit_diagnostics;
        ] );
      ("plan", [ Alcotest.test_case "codec roundtrip" `Quick test_plan_codec ]);
      ( "explore",
        [
          Alcotest.test_case "correct protocol: 200 schedules" `Slow
            test_explore_correct;
          Alcotest.test_case "buggy clerk caught and shrunk" `Quick
            test_explore_buggy_and_shrink;
          Alcotest.test_case "outcome determinism" `Quick
            test_outcome_determinism;
          Alcotest.test_case "trace replay reproduces failure" `Quick
            test_replay_reproduces_failure;
        ] );
      ( "crashpoints",
        [
          Alcotest.test_case "exhaustive site sweep" `Slow test_crash_site_sweep;
          Alcotest.test_case "every sweep crashes its own world" `Quick
            test_sweeps_crash_their_own_world;
        ] );
      ( "main-memory",
        [
          Alcotest.test_case "mm crash sweep: wal.sync/synced, tm.prepared/decided"
            `Slow test_mm_crash_sweep;
          Alcotest.test_case "mm explorer plan suite" `Slow test_mm_explore;
        ] );
      ( "ha",
        [
          Alcotest.test_case "HA explorer: 200 random fault plans" `Slow
            test_ha_explore;
          Alcotest.test_case "lag-buggy shipper caught and shrunk" `Slow
            test_ha_lagged_caught_and_shrunk;
          Alcotest.test_case "replication crash-site sweep: ship.*, ha.*"
            `Slow test_ha_crash_site_sweep;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "shard explorer: 200 random fault plans" `Slow
            test_sharded_explore;
          Alcotest.test_case "untagging forwarder caught and shrunk" `Slow
            test_sharded_anomaly_caught_and_shrunk;
          Alcotest.test_case "shard crash-site sweep: shard.*, wal.*, tm.*"
            `Slow test_sharded_crash_site_sweep;
        ] );
      ( "recorded",
        [
          Alcotest.test_case "fault-free run audited from the trace" `Quick
            test_recorded_fault_free;
          Alcotest.test_case "byte-identical dumps per plan" `Quick
            test_recorded_determinism;
          Alcotest.test_case "recording is passive" `Quick
            test_recording_is_passive;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:true prop_quickstart_audits_hold ] );
    ]
