(* One round of a workload: build a topology, run a closed loop of full
   recoverable requests (clerk Send, server dequeue-process-enqueue, clerk
   Receive) through the public Rrq_core API, then check the outputs.

   Everything a round does is a function of its seed, so two rounds of the
   same workload and seed must agree bit for bit on every virtual-time
   figure and count; only host time differs. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Disk = Rrq_storage.Disk
module Rng = Rrq_util.Rng
module Histogram = Rrq_util.Histogram
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Tm = Rrq_txn.Tm
module Group_commit = Rrq_wal.Group_commit
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Ha = Rrq_core.Ha
module Shard = Rrq_core.Shard
module Metrics = Rrq_obs.Metrics

type workload = Local | Sharded_2pc | Ha_hot

let workload_of_string = function
  | "local" -> Some Local
  | "sharded_2pc" -> Some Sharded_2pc
  | "ha_hot" -> Some Ha_hot
  | _ -> None

(* ---- fixed parameters, identical on both sides of every comparison ---- *)

let clerks = 16
let server_threads = 8
let accounts = 4096
let zipf_theta = 0.99
let sync_latency = 0.005
let net_latency = 0.0005
let think_mean = 0.020
let receive_timeout = 5.0
let receive_attempts = 6
let commit_policy = Group_commit.Adaptive { max_delay = 0.0005; max_batch = 64 }
let shard_count = 4

(* The janitor wakes every [stale_timeout] virtual seconds to abort stale
   workspaces and checkpoint logs. The default (30 s) is about one round's
   length, so whether a round checkpoints at all would hinge on a few
   requests; waking every 3 s checkpoints every round at a steady rate. *)
let stale_timeout = 3.0

(* ---- the benchmark's own handler ---------------------------------------

   A request body is "<account>:<amount>". The handler bumps the account and
   the request's own exec counter (the exactly-once ledger read by
   [Rrq_check.Audit.audit_executions]) and replies with a body derived from
   the request, so the clerk can check Request-Reply Matching. Unlike the
   harness's counting handler there is no global key, so uniform keys do not
   serialise the server transactions. *)

let reply_body body = "ok:" ^ body

let handler site txn env =
  let kv = Site.kv site in
  let id = Tm.txn_id txn in
  let body = env.Envelope.body in
  match String.index_opt body ':' with
  | None -> failwith ("malformed request body " ^ body)
  | Some i ->
    let account = String.sub body 0 i in
    let amount = int_of_string (String.sub body (i + 1) (String.length body - i - 1)) in
    ignore (Kvdb.add kv id ("exec:" ^ env.Envelope.rid) 1);
    ignore (Kvdb.add kv id ("acct:" ^ account) amount);
    Server.Reply (reply_body body)

(* ---- seeded inputs ------------------------------------------------------ *)

type client = {
  id : string;
  rng : Rng.t;  (** Think times and request bodies of this clerk. *)
}

let fresh_id rng = Printf.sprintf "u%06x" (Rng.int rng 0x1000000)

let smap_of shards =
  { Shard.version = 1; shards; backups = []; sharded_queues = [ "req" ]; pins = [] }

let shard_names = List.init shard_count (Printf.sprintf "s%d")
let reply_queue id = "reply." ^ id

(* Scattered placement: a client's reply queue never lives on the shard that
   owns its request key, so every reply enqueue is a cross-shard 2PC. Ids
   are drawn from the seed until each shard owns an equal share of request
   keys, so the load is balanced whatever the seed. *)
let scattered_ids rng =
  let smap = smap_of shard_names in
  let per_shard = clerks / shard_count in
  let taken = Hashtbl.create 8 in
  let rec pick acc n =
    if n = clerks then List.rev acc
    else
      let id = fresh_id rng in
      let req_owner = Shard.owner smap (Shard.key_for smap ~queue:"req" ~registrant:id) in
      let reply_owner = Shard.owner smap (reply_queue id) in
      let have = Option.value ~default:0 (Hashtbl.find_opt taken req_owner) in
      if req_owner = reply_owner || have >= per_shard || List.mem id acc then pick acc n
      else begin
        Hashtbl.replace taken req_owner (have + 1);
        pick (id :: acc) (n + 1)
      end
  in
  pick [] 0

let make_clients workload seed =
  let rng = Rng.create seed in
  let ids =
    match workload with
    | Sharded_2pc -> scattered_ids rng
    | Local | Ha_hot ->
      let rec distinct acc =
        if List.length acc = clerks then List.rev acc
        else
          let id = fresh_id rng in
          distinct (if List.mem id acc then acc else id :: acc)
      in
      distinct []
  in
  List.map (fun id -> { id; rng = Rng.split rng }) ids

let draw_account workload rng =
  match workload with
  | Ha_hot -> Rng.zipf rng ~n:accounts ~theta:zipf_theta
  | Local | Sharded_2pc -> Rng.int rng accounts

(* ---- topologies --------------------------------------------------------- *)

type topology = {
  net : Net.t;
  repos : Site.t list;  (** Every repository site (HA: primary then backup). *)
  audited : Site.t list;
      (** Sites whose exec counters must sum to exactly one per request. *)
  servers : Server.t list ref;
  ha : (Ha.t * Ha.t) option;
  smap : Shard.map option;
  ready : unit -> bool;  (** Booted far enough to accept the first request. *)
  reply_site : string -> Site.t;  (** Repository holding a reply queue. *)
}

let queues = [ ("req", Qm.default_attrs) ]

let repo_site net name =
  Site.create ~commit_policy ~queues ~stale_timeout (Net.make_node ~sync_latency net name)

let build workload s seed =
  let net = Net.create ~latency:net_latency s (Rng.create (seed lxor 0x5eed)) in
  let servers = ref [] in
  let serve site = servers := Server.start site ~req_queue:"req" ~threads:server_threads handler :: !servers in
  match workload with
  | Local ->
    let site = repo_site net "repo" in
    serve site;
    {
      net; repos = [ site ]; audited = [ site ]; servers; ha = None;
      smap = None; ready = (fun () -> true); reply_site = (fun _ -> site);
    }
  | Sharded_2pc ->
    let smap = smap_of shard_names in
    let sites = List.map (repo_site net) shard_names in
    List.iter
      (fun site ->
        serve site;
        ignore (Shard.attach site smap))
      sites;
    let by_name name = List.find (fun st -> Site.site_name st = name) sites in
    {
      net; repos = sites; audited = sites; servers; ha = None;
      smap = Some smap; ready = (fun () -> true);
      reply_site = (fun q -> by_name (Shard.owner smap q));
    }
  | Ha_hot ->
    let primary = repo_site net "primary" and backup = repo_site net "backup" in
    let on_serving ha =
      servers :=
        Server.start_here (Ha.site ha) ~req_queue:"req" ~threads:server_threads handler
        :: !servers
    in
    let ha_p = Ha.attach ~mode:Ha.Sync ~on_serving primary ~peer:"backup" ~role:Ha.Primary in
    let ha_b = Ha.attach ~mode:Ha.Sync ~on_serving backup ~peer:"primary" ~role:Ha.Standby in
    {
      net; repos = [ primary; backup ]; audited = [ primary ]; servers;
      ha = Some (ha_p, ha_b); smap = None;
      ready = (fun () -> Ha.is_serving ha_p && Ha.shipping ha_p);
      reply_site = (fun _ -> primary);
    }

(* ---- what a round measures ---------------------------------------------- *)

type outcome = {
  attempted : int;
  completed : int;
  failed : int;  (** Attempted requests with no matching reply. *)
  errors : string list;  (** Correctness violations: any fails the run. *)
  setup_s : float;  (** Host seconds from building the world to first Send. *)
  host_s : float;  (** Host seconds of the measured phase. *)
  minor_words : float;  (** Words allocated in the measured phase. *)
  live_words : int;
      (** Heap the world holds at the end of the measured phase, when it is
          at its largest (simulated disks, logs, stores, queues), counted
          after a full collection so that it does not depend on GC pacing. *)
  virt_s : float;  (** Virtual seconds of the measured phase. *)
  lat : Histogram.t;  (** Virtual ms, start of Send to matching reply. *)
  send : Histogram.t;  (** Virtual ms spent in [Clerk.send]. *)
  receive : Histogram.t;  (** Virtual ms from Send's return to the reply. *)
  receive_timeouts : int;
  counts : (string * int) list;
      (** Measured-phase counts read from the layers' public counters. *)
  obs : Metrics.snapshot option;  (** Registry diff of a traced round. *)
}

(* The virtual-time behaviour of a round: what a traced round and every
   repeated round must reproduce exactly. *)
let signature o =
  let h x = [ Histogram.total x; Histogram.percentile x 0.50; Histogram.percentile x 0.99 ] in
  ( [ o.attempted; o.completed; o.failed; o.receive_timeouts ],
    (o.virt_s :: h o.lat) @ h o.send @ h o.receive,
    o.counts )

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let merge_snapshots (snaps : Metrics.snapshot list) =
  let counters = Hashtbl.create 64 and samples = Hashtbl.create 64 in
  List.iter
    (fun (snap : Metrics.snapshot) ->
      List.iter
        (fun (k, v) -> Hashtbl.replace counters k (v + Option.value ~default:0 (Hashtbl.find_opt counters k)))
        snap.s_counters;
      List.iter
        (fun (k, v) -> Hashtbl.replace samples k (v :: Option.value ~default:[] (Hashtbl.find_opt samples k)))
        snap.s_samples)
    snaps;
  let sorted tbl f = List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []) in
  {
    Metrics.s_counters = sorted counters Fun.id;
    s_gauges = [];
    s_samples = sorted samples (fun l -> Array.concat (List.rev l));
  }

(* Several rounds as one: counts, times, samples and live heap add up.
   Set-up time is the first round's. *)
let pool = function
  | [] -> invalid_arg "World.pool"
  | first :: _ as os ->
    let fsum f = List.fold_left (fun acc o -> acc +. f o) 0.0 os in
    let hist f = List.fold_left (fun h o -> Histogram.merge h (f o)) (Histogram.create ()) os in
    {
      first with
      attempted = sum (fun o -> o.attempted) os;
      completed = sum (fun o -> o.completed) os;
      failed = sum (fun o -> o.failed) os;
      errors = List.concat_map (fun o -> o.errors) os;
      host_s = fsum (fun o -> o.host_s);
      minor_words = fsum (fun o -> o.minor_words);
      live_words = sum (fun o -> o.live_words) os;
      virt_s = fsum (fun o -> o.virt_s);
      lat = hist (fun o -> o.lat);
      send = hist (fun o -> o.send);
      receive = hist (fun o -> o.receive);
      receive_timeouts = sum (fun o -> o.receive_timeouts) os;
      counts = List.map (fun (k, _) -> (k, sum (fun o -> List.assoc k o.counts) os)) first.counts;
      obs = Option.map (fun _ -> merge_snapshots (List.filter_map (fun o -> o.obs) os)) first.obs;
    }

(* Running totals of the public counters of Net, Disk and Ha. *)
let public_counters topo =
  let disks = List.map (fun st -> Net.disk (Site.node st)) topo.repos in
  [
    ("net.msgs", Net.messages_sent topo.net);
    ("net.dropped", Net.messages_dropped topo.net);
    ("disk.syncs", sum Disk.sync_count disks);
    ("disk.synced_bytes", sum Disk.synced_bytes disks);
  ]
  @
  match topo.ha with
  | None -> []
  | Some (p, b) -> [ ("ha.ship_batches", Ha.ship_batches p); ("ha.applied_bytes", Ha.applied_bytes b) ]

let live_bytes topo =
  sum
    (fun st ->
      let d = Net.disk (Site.node st) in
      sum (fun f -> Option.value ~default:0 (Disk.file_size d f)) (Disk.list_files d))
    topo.repos

let server_aborts topo = sum Server.aborted !(topo.servers)

(* ---- correctness -------------------------------------------------------- *)

(* No request executed twice; no acknowledged request lost. A request that
   never got its reply may have run once or not at all. *)
let audit topo ~rids ~acked ~stage =
  let sites = topo.audited in
  let _, _, dup = Rrq_check.Audit.audit_executions sites ~rids in
  let lost, _, _ = Rrq_check.Audit.audit_executions sites ~rids:acked in
  (if dup > 0 then [ Printf.sprintf "%s: %d requests executed more than once" stage dup ] else [])
  @
  if lost > 0 then [ Printf.sprintf "%s: %d acknowledged requests not executed" stage lost ] else []

(* Exactly one reply per request: the clerk consumed one matching reply per
   rid, so every reply queue must now be empty. *)
let stray_replies topo clients =
  List.filter_map
    (fun c ->
      let n = Qm.depth (Site.qm (topo.reply_site (reply_queue c.id))) (reply_queue c.id) in
      if n > 0 then Some (Printf.sprintf "%d stray replies for %s" n c.id) else None)
    clients

(* Crash every repository, restart it, and wait until it serves again with
   no transaction left in doubt: whatever was acknowledged must have
   survived. (A participant's commit record may still be unforced when the
   reply is released; recovery redelivers the logged decision.) *)
let crash_and_restart topo =
  List.iter Site.crash topo.repos;
  List.iter Site.restart topo.repos;
  let settled st =
    Kvdb.in_doubt (Site.kv st) = []
    && Qm.in_doubt (Site.qm st) = []
    && Tm.pending_decisions (Site.tm st) = []
  in
  Rrq_check.Runner.await ~timeout:60.0 (fun () ->
      List.for_all settled topo.audited
      && match topo.ha with Some (p, _) -> Ha.is_serving p | None -> true)

(* ---- the round ---------------------------------------------------------- *)

(* What the clerks observed during the measured phase. *)
type tally = {
  t_lat : Histogram.t;
  t_send : Histogram.t;
  t_receive : Histogram.t;
  mutable t_timeouts : int;
  mutable t_failed : int;
  mutable t_acked : string list;  (** Rids whose matching reply arrived. *)
  mutable t_errors : string list;
}

let connect topo c =
  let backups = Option.map (fun _ -> [ "backup" ]) topo.ha in
  let system = match topo.ha, topo.smap with
    | Some _, _ -> "primary" | None, Some _ -> "s0" | None, None -> "repo"
  in
  let clerk, _ =
    Clerk.connect ~client_node:(Net.make_node topo.net ("c-" ^ c.id)) ~system ?backups
      ?shard_map:topo.smap ~client_id:c.id ~req_queue:"req" ~retries:8 ()
  in
  (c, clerk)

(* One clerk's closed loop: think, Send, Receive until the matching reply. *)
let clerk_loop workload tally ~requests (c, clerk) =
  for r = 0 to requests - 1 do
    Sched.sleep (Rng.exponential c.rng ~mean:think_mean);
    let rid = Printf.sprintf "%s-%d" c.id r in
    let body = Printf.sprintf "%d:%d" (draw_account workload c.rng) (1 + Rng.int c.rng 9) in
    let t0 = Sched.clock () in
    match Clerk.send clerk ~rid body with
    | exception Clerk.Unavailable _ -> tally.t_failed <- tally.t_failed + 1
    | _ ->
      let t1 = Sched.clock () in
      let rec await_reply attempts =
        if attempts = 0 then tally.t_failed <- tally.t_failed + 1
        else
          match Clerk.receive clerk ~timeout:receive_timeout () with
          | exception Clerk.Unavailable _ -> tally.t_failed <- tally.t_failed + 1
          | None ->
            tally.t_timeouts <- tally.t_timeouts + 1;
            await_reply (attempts - 1)
          | Some env when env.Envelope.rid = rid && env.Envelope.body = reply_body body ->
            let t2 = Sched.clock () in
            tally.t_acked <- rid :: tally.t_acked;
            Histogram.add tally.t_lat ((t2 -. t0) *. 1e3);
            Histogram.add tally.t_send ((t1 -. t0) *. 1e3);
            Histogram.add tally.t_receive ((t2 -. t1) *. 1e3)
          | Some env ->
            tally.t_failed <- tally.t_failed + 1;
            tally.t_errors <-
              Printf.sprintf "reply %s/%S does not match request %s/%S" env.Envelope.rid
                env.Envelope.body rid body
              :: tally.t_errors
      in
      await_reply receive_attempts
  done

let run ~workload ~seed ~requests ~traced ~durability =
  let clients = make_clients workload seed in
  let rids = List.concat_map (fun c -> List.init requests (Printf.sprintf "%s-%d" c.id)) clients in
  if traced then Rrq_obs.reset () else Rrq_obs.disable ();
  (* Start every round from the same heap: the previous round's world is
     garbage, and collecting it must not be charged to this one. *)
  Gc.compact ();
  let h0 = Unix.gettimeofday () in
  let sched = ref None in
  let decisions () = match !sched with Some s -> Array.length (Sched.trace s) | None -> 0 in
  let result, _ =
    Rrq_check.Runner.run_scenario_traced (fun s ->
        sched := Some s;
        let topo = build workload s seed in
        fun () ->
          let ready = Rrq_check.Runner.await ~poll:0.01 topo.ready in
          let connected = List.map (connect topo) clients in
          let setup_s = Unix.gettimeofday () -. h0 in
          let tally =
            {
              t_lat = Histogram.create (); t_send = Histogram.create ();
              t_receive = Histogram.create (); t_timeouts = 0; t_failed = 0; t_acked = [];
              t_errors = (if ready then [] else [ "topology never became ready" ]);
            }
          in
          let running = ref clerks and all_done = ref None in
          let clerk cc () =
            clerk_loop workload tally ~requests cc;
            decr running;
            if !running = 0 then Option.iter (fun w -> ignore (Sched.wake w ())) !all_done
          in
          let before = public_counters topo and aborts0 = server_aborts topo in
          let d0 = decisions () in
          let obs0 = if traced then Some (Metrics.snapshot ()) else None in
          let v0 = Sched.clock () in
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          List.iter (fun cc -> ignore (Sched.fork ~name:("clerk-" ^ (fst cc).id) (clerk cc))) connected;
          if !running > 0 then Sched.suspend (fun _ w -> all_done := Some w);
          let t1 = Unix.gettimeofday () in
          let w1 = Gc.minor_words () in
          let v1 = Sched.clock () in
          Gc.full_major ();
          let live_words = (Gc.quick_stat ()).Gc.live_words in
          let obs = Option.map (fun before -> Metrics.diff ~before ~after:(Metrics.snapshot ())) obs0 in
          let counts =
            List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (public_counters topo)
            @ [
                ("sched.decisions", decisions () - d0);
                ("server.aborts", server_aborts topo - aborts0);
                ("disk.live_bytes_end", live_bytes topo);
              ]
          in
          let acked = tally.t_acked in
          let completed = List.length acked in
          let checks =
            stray_replies topo clients @ audit topo ~rids ~acked ~stage:"after load"
            @
            if not durability then []
            else if not (crash_and_restart topo) then [ "repositories did not come back after restart" ]
            else audit topo ~rids ~acked ~stage:"after crash and restart"
          in
          {
            attempted = clerks * requests; completed; failed = tally.t_failed;
            errors = List.rev tally.t_errors @ checks; setup_s; host_s = t1 -. t0;
            minor_words = w1 -. w0; live_words; virt_s = v1 -. v0; lat = tally.t_lat;
            send = tally.t_send; receive = tally.t_receive; receive_timeouts = tally.t_timeouts;
            counts; obs;
          })
  in
  Rrq_obs.disable ();
  (* The runner points the trace clock at this world's scheduler; let go of
     it so the world can be collected. *)
  Rrq_obs.Trace.set_clock (fun () -> 0.0);
  result
