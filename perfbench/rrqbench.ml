(* The repository benchmark: one recoverable request, end to end and per
   layer, on three topologies.

     rrqbench.exe --workload local|sharded_2pc|ha_hot --seed N --seconds S --trace 0|1

   A run repeats fixed-size rounds until S host seconds have passed. Round i
   runs input set (i mod input_sets), derived from the seed, so each input
   set repeats, and its virtual-time figures and counts must come out
   identical every time. Host-time figures are medians over rounds;
   virtual-time figures, counts and allocation pool one round of each input
   set, which makes them deterministic.

   With --trace 0 it prints the end-to-end metrics, measured with Rrq_obs
   off. With --trace 1 it times the unit-cost probes, alternates untraced
   and traced rounds, and prints the per-layer metrics. The last line of
   stdout is one JSON object. *)

module Histogram = Rrq_util.Histogram
module Metrics = Rrq_obs.Metrics

let requests_per_clerk = 250
let input_sets = 8
let input_seed seed k = (seed * 16) + k
let probe_reps = 7

let usage () =
  prerr_endline
    "usage: rrqbench.exe --workload local|sharded_2pc|ha_hot --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let name = ref "" and workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
      name := w;
      workload := World.workload_of_string w;
      if !workload = None then usage ();
      go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: n :: rest -> seconds := float_of_string_opt n; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some w, Some n, Some s, Some t when s > 0.0 -> (!name, w, n, s, t)
  | _ -> usage ()

let median = Probes.median
let host_us_per_req (o : World.outcome) = o.host_s *. 1e6 /. float_of_int (max 1 o.completed)
let count (o : World.outcome) name = Option.value ~default:0 (List.assoc_opt name o.counts)

(* Rounds until the time is up: at least one per input set, always whole. *)
let rounds ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    if i >= input_sets && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* One round of each input set, pooled. *)
let pooled runs = World.pool (List.filteri (fun i _ -> i < input_sets) runs)

(* ---- end-to-end metrics ------------------------------------------------- *)

let end_to_end (runs : World.outcome list) =
  let p = pooled runs in
  (* Mean over the input sets: where a round ends in the checkpoint cycle
     moves its own figure by up to a fifth. *)
  let heap_mb =
    float_of_int (p.live_words / input_sets * (Sys.word_size / 8)) /. 1048576.0
  in
  [
    ("setup_s", "s", median (List.map (fun (o : World.outcome) -> o.setup_s) runs));
    ("host_us_per_req", "us", median (List.map host_us_per_req runs));
    ("alloc_words_per_req", "words", p.minor_words /. float_of_int p.completed);
    ("heap_peak_mb", "MB", heap_mb);
    ("lat_p50_ms", "ms", Histogram.percentile p.lat 0.50);
    ("lat_p99_ms", "ms", Histogram.percentile p.lat 0.99);
    ("throughput_rps", "1/s", float_of_int p.completed /. p.virt_s);
  ]

(* ---- per-layer metrics -------------------------------------------------- *)

let counter_sum (snap : Metrics.snapshot) prefix =
  List.fold_left
    (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
    0 snap.s_counters

let series (snap : Metrics.snapshot) prefix =
  let h = Histogram.create () in
  List.iter
    (fun (k, samples) -> if String.starts_with ~prefix k then Array.iter (Histogram.add h) samples)
    snap.s_samples;
  h

(* Registry series hold virtual seconds. *)
let ms h p = Histogram.percentile h p *. 1e3
let seal_reasons = [ "full"; "timeout"; "idle"; "rate"; "immediate" ]

(* [traced] pools one traced round of each input set, [untraced_us] is the
   untraced cost per request, [probes] the unit costs. A layer absent from
   the workload reports 0 and is marked n/a in the human-readable table. *)
let per_layer ~workload ~traced:(o : World.outcome) ~untraced_us ~overhead_pct ~probes
    ~net_decisions_per_call =
  let sharded = workload = World.Sharded_2pc and ha = workload = World.Ha_hot in
  let snap = Option.get o.obs in
  let n = float_of_int (max 1 o.completed) in
  let pr x = float_of_int x /. n in
  let qm_ops = counter_sum snap "qm.enqueues:" + counter_sum snap "qm.dequeues:" in
  let seals = List.map (fun r -> (r, counter_sum snap ("gc.seal." ^ r ^ ":"))) seal_reasons in
  let total_seals = List.fold_left (fun a (_, c) -> a + c) 0 seals in
  let probe name = List.assoc name probes in
  let net_calls = pr (count o "net.msgs") /. 2.0 in
  (* The ledger sums inclusive unit costs that do not contain each other: a
     QM op and a KV put each include their own log append and force, a TM
     commit its decision log, a net call the scheduling it causes. What is
     left of the measured cost is unattributed. *)
  let ledger_ns =
    (probe "qm.host_ns_per_op" *. pr qm_ops)
    +. (probe "kvdb.host_ns_per_put" *. pr (counter_sum snap "wal.appends:kv@"))
    +. (probe "tm.host_ns_per_commit" *. pr (counter_sum snap "tm.commits:"))
    +. (probe "net.host_ns_per_call" *. net_calls)
    +. probe "sched.host_ns_per_switch"
       *. Float.max 0.0 (pr (count o "sched.decisions") -. (net_calls *. net_decisions_per_call))
  in
  let untraced_ns = untraced_us *. 1e3 in
  [
    ("failed_frac", "ratio", float_of_int o.failed /. float_of_int o.attempted, true);
    ("lat_samples", "count", float_of_int (Histogram.count o.lat), true);
    ("clerk.send_ms_p50", "ms", Histogram.percentile o.send 0.50, true);
    ("clerk.send_ms_p99", "ms", Histogram.percentile o.send 0.99, true);
    ("clerk.receive_ms_p50", "ms", Histogram.percentile o.receive 0.50, true);
    ("clerk.receive_ms_p99", "ms", Histogram.percentile o.receive 0.99, true);
    ("clerk.receive_timeouts_per_req", "count", pr o.receive_timeouts, true);
    ("server.service_ms_p50", "ms", ms (series snap "server.service:") 0.50, true);
    ("server.service_ms_p99", "ms", ms (series snap "server.service:") 0.99, true);
    ("server.aborts_per_req", "count", pr (count o "server.aborts"), true);
    ("qm.ops_per_req", "count", pr qm_ops, true);
    ("qm.wait_ms_p50", "ms", ms (series snap "qm.wait:") 0.50, true);
    ("qm.wait_ms_p99", "ms", ms (series snap "qm.wait:") 0.99, true);
    ("qm.commit_ms_p50", "ms", ms (series snap "qm.commit.latency:") 0.50, true);
    ("qm.host_ns_per_op", "ns", probe "qm.host_ns_per_op", true);
    ("tm.commits_per_req", "count", pr (counter_sum snap "tm.commits:"), true);
    ("tm.aborts_per_req", "count", pr (counter_sum snap "tm.aborts:"), true);
    ("tm.commit_ms_p50", "ms", ms (series snap "tm.commit.latency:") 0.50, true);
    ("tm.commit_ms_p99", "ms", ms (series snap "tm.commit.latency:") 0.99, true);
    ("tm.host_ns_per_commit", "ns", probe "tm.host_ns_per_commit", true);
    ("lock.host_ns_per_acquire", "ns", probe "lock.host_ns_per_acquire", true);
    ("kvdb.host_ns_per_put", "ns", probe "kvdb.host_ns_per_put", true);
    ("wal.appends_per_req", "count", pr (counter_sum snap "wal.appends:"), true);
    ("wal.bytes_per_req", "bytes", pr (counter_sum snap "wal.bytes:"), true);
    ("wal.host_ns_per_append", "ns", probe "wal.host_ns_per_append", true);
    ("group_commit.syncs_per_req", "count", pr (counter_sum snap "gc.syncs:"), true);
    ("group_commit.batch_mean", "count", Histogram.mean (series snap "gc.batch:"), true);
  ]
  @ List.map
      (fun (r, c) ->
        ( "group_commit.seal_" ^ r ^ "_share", "ratio",
          float_of_int c /. float_of_int (max 1 total_seals), true ))
      seals
  @ [
      ("disk.syncs_per_req", "count", pr (count o "disk.syncs"), true);
      ("disk.synced_bytes_per_req", "bytes", pr (count o "disk.synced_bytes"), true);
      ( "disk.live_bytes_end", "bytes",
        float_of_int (count o "disk.live_bytes_end") /. float_of_int input_sets, true );
      ("net.msgs_per_req", "count", pr (count o "net.msgs"), true);
      ("net.dropped", "count", float_of_int (count o "net.dropped"), true);
      ("net.host_ns_per_call", "ns", probe "net.host_ns_per_call", true);
      ("sched.decisions_per_req", "count", pr (count o "sched.decisions"), true);
      ("sched.host_ns_per_switch", "ns", probe "sched.host_ns_per_switch", true);
      ("codec.host_ns_per_record", "ns", probe "codec.host_ns_per_record", true);
      ("ha.ship_batches_per_req", "count", pr (count o "ha.ship_batches"), ha);
      ("ha.applied_bytes_per_req", "bytes", pr (count o "ha.applied_bytes"), ha);
      ("shard.forwards_per_req", "count", pr (counter_sum snap "shard.forwards:"), sharded);
      ("shard.misroutes", "count", float_of_int (counter_sum snap "shard.misroutes:"), sharded);
      ("shard.refresh", "count", float_of_int (counter_sum snap "shard.refresh"), sharded);
      ("obs.overhead_pct", "%", overhead_pct, true);
      ("ledger.unattributed_pct", "%", 100.0 *. (untraced_ns -. ledger_ns) /. untraced_ns, true);
    ]

(* ---- output ------------------------------------------------------------- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " m)

let print_table rows =
  List.iter
    (fun (name, unit, v, present) ->
      if present then Printf.printf "  %-36s %16.4f %s\n" name v unit
      else Printf.printf "  %-36s %16s\n" name "n/a")
    rows

let () =
  let name, workload, seed, seconds, trace = parse_args () in
  (* The first round of each input set also crashes and restarts the
     repositories after its measured phase. *)
  let run ~traced i =
    World.run ~workload ~seed:(input_seed seed (i mod input_sets)) ~requests:requests_per_clerk
      ~traced ~durability:((not traced) && i < input_sets)
  in
  let errors = ref [] in
  let err msg = if not (List.mem msg !errors) then errors := msg :: !errors in
  let check_same ~reference what =
    List.iteri (fun i (o : World.outcome) ->
        if World.signature o <> World.signature (List.nth reference (i mod input_sets)) then
          err (what ^ " differs from the first round of its input set"))
  in
  let runs, rows =
    if not trace then begin
      let runs = rounds ~seconds (run ~traced:false) in
      check_same ~reference:runs "a repeated round's virtual behaviour" runs;
      (runs, List.map (fun (n, u, v) -> (n, u, v, true)) (end_to_end runs))
    end
    else begin
      let probes = Probes.measure ~reps:probe_reps in
      let net_decisions_per_call = Probes.decisions_per_call () in
      let pairs = rounds ~seconds (fun i -> (run ~traced:false i, run ~traced:true i)) in
      let plain, traced = List.split pairs in
      check_same ~reference:plain "a repeated untraced round" plain;
      check_same ~reference:plain "the traced round's virtual behaviour" traced;
      let overhead_pct =
        median (List.map (fun (p, t) -> 100.0 *. (host_us_per_req t /. host_us_per_req p -. 1.0)) pairs)
      in
      let untraced_us = median (List.map host_us_per_req plain) in
      ( plain @ traced,
        per_layer ~workload ~traced:(pooled traced) ~untraced_us ~overhead_pct ~probes
          ~net_decisions_per_call )
    end
  in
  List.iter (fun (o : World.outcome) -> List.iter err o.errors) runs;
  let attempted = List.fold_left (fun a (o : World.outcome) -> a + o.attempted) 0 runs in
  let failed = List.fold_left (fun a (o : World.outcome) -> a + o.failed) 0 runs in
  Printf.printf "rrqbench: workload %s, seed %d, %d rounds of %d requests, trace %b\n"
    name seed (List.length runs) (World.clerks * requests_per_clerk) trace;
  (* Host time per round, in run order: shows the machine's noise. *)
  Printf.printf "  host_us_per_req by round: %s\n"
    (String.concat " " (List.map (fun o -> Printf.sprintf "%.1f" (host_us_per_req o)) runs));
  print_table rows;
  List.iter (fun e -> Printf.printf "  ERROR: %s\n" e) (List.rev !errors);
  print_result ~correct:(!errors = []) ~attempted ~failed (List.map (fun (n, u, v, _) -> (n, u, v)) rows)
