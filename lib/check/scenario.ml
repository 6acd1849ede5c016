(* Checkable scenarios: small closed worlds (clients, repository sites, a
   network) that run one fault plan to quiescence and audit themselves.

   Seven are built in, on four worlds:
   - [quickstart]: the paper's System Model on one backend — real clerks,
     tagged Sends and Receives, a counting server — which must satisfy
     every auditor under any plan the explorer throws at it;
     [quickstart-mm] is the same world over a main-memory request queue;
   - [ha]: a primary-backup pair with clerk failover; [ha-lagged] is its
     deliberately lag-buggy shipper;
   - [sharded]: three shard repositories across a mid-run map change;
     [sharded-buggy] is its deliberately tag-stripping forwarder;
   - [buggy]: a deliberately broken client that enqueues untagged and
     blindly re-Sends on a reply timeout (no rid check), the canonical
     duplicate-request bug the paper's registration tags exist to prevent.

   Every world runs through one runner, [run_world]: it owns the network,
   the client node, fault injection, crash arming and the outcome. A world
   contributes only its build (its sites, keyed by node name) and a main
   fiber body that drives its clients and runs its auditors. *)

module Sched = Rrq_sim.Sched
module Crashpoint = Rrq_sim.Crashpoint
module Disk = Rrq_storage.Disk
module Rng = Rrq_util.Rng
module Net = Rrq_net.Net
module Qm = Rrq_qm.Qm
module Site = Rrq_core.Site
module Server = Rrq_core.Server
module Clerk = Rrq_core.Clerk
module Envelope = Rrq_core.Envelope
module Ha = Rrq_core.Ha
module Shard = Rrq_core.Shard
module Kvdb = Rrq_kvdb.Kvdb

type outcome = {
  findings : Audit.finding list;
  trace : Sched.decision array;
  trace_truncated : bool;
  requests : int;
  replies : int;
  virtual_time : float;
  disks : (string * int * int) list;
}

(* A world's build: create its sites on the network and return them, keyed
   by node name (the fault injector's and the crash arm's targets), with
   the main fiber body. The body gets the client node and the reply
   counter, and returns the audit findings at quiescence. *)
type t = {
  name : string;
  profile : Plan.profile;
  probe : Plan.t;  (* the plan crash-site sweeps run under *)
  requests : int;
  checkpoint_every : int option;  (* every site's janitor cadence *)
  build :
    ?checkpoint_every:int ->
    Net.t ->
    (string * Site.t) list
    * (client_node:Net.node -> replies:int ref -> Audit.finding list);
}

let name t = t.name
let profile t = t.profile
let with_checkpoint_every n t = { t with checkpoint_every = Some n }
let failed o = o.findings <> []

(* ---- the world runner --------------------------------------------------- *)

(* Faults run as scheduler callbacks at their planned virtual times,
   dispatched by node name; a crash of a node the world does not have is
   dropped. A crash while the node is already down is skipped
   (deterministically), so overlapping faults cannot double-boot a site. *)
let inject s net sites (plan : Plan.t) =
  List.iter
    (fun fault ->
      match fault with
      | Plan.Crash { node; at; recover_after } -> (
        match List.assoc_opt node sites with
        | None -> ()
        | Some site ->
          Sched.at s at (fun () ->
              if Net.is_up (Site.node site) then
                Site.crash_restart site ~after:recover_after))
      | Plan.Partition { a; b; at; heal_after } ->
        Sched.at s at (fun () ->
            Net.partition net a b;
            Sched.at s (Sched.now s +. heal_after) (fun () -> Net.heal net a b)))
    plan.Plan.faults

(* A one-shot kill of [victim] (a node name) at the [hit]-th reach of a
   named crash site ([Rrq_sim.Crashpoint]), which may be reached on another
   node: killing the primary at ["ship.applied"] fires from the backup's
   apply fiber. *)
let arm s net (site, hit, victim, recover_after) =
  Crashpoint.reset ();
  Crashpoint.arm ~site ~hit (fun () ->
      let node = Net.node net victim in
      (* The crash must be synchronous: freezing the disk and killing the
         node's fibers in one step, before control returns to the reaching
         code, so no acknowledgment of a never-durable effect can escape to
         a client. *)
      if Net.is_up node then begin
        let disk = Net.disk node in
        Disk.kill_now disk;
        Sched.note_fault s ("crashpoint " ^ site ^ " kills " ^ victim);
        Net.crash node;
        Disk.revive disk;
        Sched.at s (Sched.now s +. recover_after) (fun () -> Net.restart node)
      end;
      (* If the site was reached from one of the victim's own fibers, that
         fiber died mid-instruction: unwind it with [Crash] (the scheduler
         counts that as a kill, and no Swallow-disciplined handler may eat
         it — rrq_lint R1). *)
      if Sched.in_fiber () && Sched.fiber_group (Sched.self ()) = Some victim
      then Crashpoint.crash ())

let run_world ?armed ?policy t (plan : Plan.t) =
  let policy =
    match policy with Some p -> p | None -> Plan.sched_policy plan
  in
  let replies = ref 0 in
  let nodes = ref [] in
  let body () =
    let (findings, virtual_time), sched =
      Runner.run_scenario_traced ~policy (fun s ->
          let net =
            Net.create ~latency:0.005 s (Rng.create ((plan.Plan.seed * 7) + 1))
          in
          let sites, main = t.build ?checkpoint_every:t.checkpoint_every net in
          let client_node = Net.make_node net "client" in
          nodes :=
            List.map (fun (_, site) -> Site.node site) sites @ [ client_node ];
          inject s net sites plan;
          Option.iter (arm s net) armed;
          fun () ->
            let findings = main ~client_node ~replies in
            (findings, Sched.clock ()))
    in
    {
      findings;
      trace = Sched.trace sched;
      trace_truncated = Sched.trace_truncated sched;
      requests = t.requests;
      replies = !replies;
      virtual_time;
      disks =
        List.map
          (fun n ->
            let d = Net.disk n in
            (Net.node_name n, Disk.sync_count d, Disk.synced_bytes d))
          !nodes;
    }
  in
  match armed with
  | None -> body ()
  | Some _ -> Fun.protect ~finally:Crashpoint.disable body

let run ?policy t plan = run_world ?policy t plan

let fingerprint o =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s|%b|%s|%d/%d|%h" (Sched.trace_to_string o.trace)
    o.trace_truncated
    (Audit.findings_to_string o.findings)
    o.replies o.requests o.virtual_time;
  List.iter (fun (n, c, by) -> Printf.bprintf b "|%s:%d:%d" n c by) o.disks;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- clients ------------------------------------------------------------ *)

(* Every well-behaved client sends this many requests. *)
let reqs = 2

let rids prefix ~clients =
  List.concat
    (List.init clients (fun c ->
         List.init reqs (fun r -> Printf.sprintf "%s%d-r%d" prefix c r)))

(* One well-behaved client: tagged Sends, Receives retried through outages,
   [pause] virtual seconds between requests. Every final reply counts in
   [replies]; [on_reply ~rid env] says whether [env] is the reply to [rid]
   the client is waiting for. Retry budgets comfortably exceed the worst
   fault schedule a profile can generate, so a correct run can never report
   a lost request. *)
let good_client ~connect ~pause ~on_reply ~replies client_id =
  let rec conn n =
    match connect client_id with
    | clerk, _ -> clerk
    | exception Clerk.Unavailable _ when n > 0 ->
      Sched.sleep 1.0;
      conn (n - 1)
  in
  let clerk = conn 60 in
  for r = 0 to reqs - 1 do
    if r > 0 && pause > 0.0 then Sched.sleep pause;
    let rid = Printf.sprintf "%s-r%d" client_id r in
    let rec send n =
      try ignore (Clerk.send clerk ~rid ("work:" ^ rid))
      with Clerk.Unavailable _ when n > 0 ->
        Sched.sleep 1.0;
        send (n - 1)
    in
    send 60;
    let deadline = Sched.clock () +. 60.0 in
    let rec recv () =
      let reply =
        try Clerk.receive clerk ~timeout:2.0 ()
        with Clerk.Unavailable _ ->
          Sched.sleep 1.0;
          None
      in
      let arrived =
        match reply with
        | Some env when env.Envelope.kind <> "intermediate" ->
          incr replies;
          on_reply ~rid env
        | _ -> false
      in
      if (not arrived) && Sched.clock () < deadline then recv ()
    in
    recv ()
  done

(* Fork [clients] client fibers named [name ^ index], await them, let
   redelivery, resolvers and janitors quiesce for [settle] virtual seconds,
   then audit. *)
let run_clients ~name ~clients ~settle client auditors =
  let clients_done = ref 0 in
  for c = 0 to clients - 1 do
    ignore
      (Sched.fork ~name:(Printf.sprintf "%s%d" name c) (fun () ->
           client c;
           incr clients_done))
  done;
  ignore (Runner.await ~timeout:300.0 (fun () -> !clients_done = clients));
  Sched.sleep settle;
  Audit.run auditors

let any_reply ~rid:_ _ = true

let make_site net ?commit_policy ?checkpoint_every
    ?(queue_attrs = Qm.default_attrs) name =
  Site.create ?commit_policy ?checkpoint_every
    ~queues:[ ("req", queue_attrs) ]
    ~stale_timeout:3.0 (Net.make_node net name)

let standard_auditors sites rids =
  let sites () = sites in
  [
    Audit.exactly_once ~sites ~rids:(fun () -> rids);
    Audit.queue_integrity ~sites;
    Audit.no_in_doubt ~sites;
  ]

(* Executions summed over [sites]: the counting handler's ["total"]. *)
let exec_total sites =
  List.fold_left
    (fun acc site ->
      acc
      +
      match Kvdb.committed_value (Site.kv site) "total" with
      | Some v -> Option.value ~default:0 (int_of_string_opt v)
      | None -> 0)
    0 sites

let fault_free = Plan.make ~seed:0 ~policy:`Fifo ~faults:[]

(* ---- quickstart: correct clerks, must always pass ----------------------- *)

let quickstart_clients = 2
let quickstart_rids = rids "c" ~clients:quickstart_clients

(* [queue_attrs]/[commit_policy] select the request queue's durability
   class and the site's commit batching — the main-memory variant below
   runs the same closed world over a [Main_memory] request queue with
   adaptive group commit, so every auditor (exactly-once above all) gets
   exercised against redo-only recovery. *)
let build_quickstart ?queue_attrs ?commit_policy ?checkpoint_every net =
  let site =
    make_site net ?commit_policy ?checkpoint_every ?queue_attrs "backend"
  in
  ignore (Server.start site ~req_queue:"req" ~threads:2 Audit.counting_handler);
  ( [ ("backend", site) ],
    fun ~client_node ~replies ->
      run_clients ~name:"client" ~clients:quickstart_clients ~settle:20.0
        (fun c ->
          good_client ~pause:0.0 ~on_reply:any_reply ~replies
            ~connect:(fun client_id ->
              Clerk.connect ~client_node ~system:"backend" ~client_id
                ~req_queue:"req" ~retries:8 ())
            (Printf.sprintf "c%d" c))
        (standard_auditors [ site ] quickstart_rids) )

let quickstart_profile =
  {
    Plan.crash_nodes = [ "backend" ];
    partition_pairs = [ ("client", "backend") ];
    horizon = 6.0;
    max_faults = 3;
  }

let quickstart =
  {
    name = "quickstart";
    profile = quickstart_profile;
    probe = fault_free;
    requests = List.length quickstart_rids;
    checkpoint_every = None;
    build =
      (fun ?checkpoint_every net -> build_quickstart ?checkpoint_every net);
  }

(* Same world, main-memory request queue + adaptive group commit: element
   payload and order live purely in memory, only redo records hit the WAL,
   and recovery rebuilds the queue from the redo scan. Exactly-once must
   hold anyway — that equivalence is what the mm crash sweeps check. *)
let quickstart_mm =
  {
    quickstart with
    name = "quickstart-mm";
    build =
      (fun ?checkpoint_every net ->
        build_quickstart ?checkpoint_every
          ~queue_attrs:{ Qm.default_attrs with durability = Qm.Main_memory }
          ~commit_policy:
            (Rrq_wal.Group_commit.Adaptive
               { max_delay = 0.0005; max_batch = 64 })
          net);
  }

(* ---- HA pair: primary-backup WAL shipping with clerk failover ----------- *)

let ha_clients = 2
let ha_rids = rids "h" ~clients:ha_clients

(* Clerks connect to the HA pair (backup rotation) and count every received
   reply per rid — the [reply_delivery] auditor's evidence of what escaped
   to the client. A stray duplicate of an older request is counted, and the
   client keeps waiting for its own. *)
let build_ha ~mode ?checkpoint_every net =
  let site_p = make_site net ?checkpoint_every "primary" in
  let site_b = make_site net ?checkpoint_every "backup" in
  let serve ha =
    ignore
      (Server.start_here (Ha.site ha) ~req_queue:"req" ~threads:2
         Audit.counting_handler)
  in
  let _ha_p =
    Ha.attach ~mode ~on_serving:serve site_p ~peer:"backup" ~role:Ha.Primary
  in
  let ha_b =
    Ha.attach ~mode ~on_serving:serve site_b ~peer:"primary" ~role:Ha.Standby
  in
  let received : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let on_reply ~rid env =
    let rrid = env.Envelope.rid in
    Hashtbl.replace received rrid
      (1 + Option.value ~default:0 (Hashtbl.find_opt received rrid));
    rrid = rid
  in
  (* The authoritative repository: the promoted backup if it took over,
     else the (possibly recovered) original primary. *)
  let auth () = if Ha.is_serving ha_b then [ site_b ] else [ site_p ] in
  let both () = [ site_p; site_b ] in
  ( [ ("primary", site_p); ("backup", site_b) ],
    fun ~client_node ~replies ->
      (* settle: failover, rejoin, resync, resolvers, janitors *)
      run_clients ~name:"haclient" ~clients:ha_clients ~settle:25.0
        (fun c ->
          good_client ~pause:0.0 ~on_reply ~replies
            ~connect:(fun client_id ->
              Clerk.connect ~client_node ~system:"primary"
                ~backups:[ "backup" ] ~client_id ~req_queue:"req" ~retries:8
                ())
            (Printf.sprintf "h%d" c))
        [
          Audit.exactly_once ~sites:auth ~rids:(fun () -> ha_rids);
          Audit.conservation ~name:"exec-total"
            ~expected:(List.length ha_rids)
            ~actual:(fun () -> exec_total (auth ()));
          Audit.reply_delivery ~sites:auth
            ~received:(fun rid ->
              Option.value ~default:0 (Hashtbl.find_opt received rid))
            ~rids:(fun () -> ha_rids);
          Audit.queue_integrity ~sites:both;
          Audit.no_in_doubt ~sites:both;
        ] )

let ha_profile =
  {
    Plan.crash_nodes = [ "primary" ];
    partition_pairs = [ ("client", "primary") ];
    horizon = 6.0;
    max_faults = 3;
  }

let ha =
  {
    name = "ha";
    profile = ha_profile;
    (* The primary kill makes the failover path (heartbeat-miss, promote)
       reachable, so the probe discovers the ha.* sites. *)
    probe =
      Plan.make ~seed:0 ~policy:`Fifo
        ~faults:
          [ Plan.Crash { node = "primary"; at = 2.0; recover_after = 6.0 } ];
    requests = List.length ha_rids;
    checkpoint_every = None;
    build = build_ha ~mode:Ha.Sync;
  }

(* The deliberately lag-buggy shipper: replies released up to a second
   ahead of the backup. Fault-free it passes every auditor; kill the
   primary inside the lag window and the promoted backup either never saw
   an acknowledged request (exactly-once: lost) or re-executes one whose
   reply already escaped (reply-delivery: 2 replies). The explorer must
   find this and ddmin must shrink it to the one killing crash. *)
let ha_lagged = { ha with name = "ha-lagged"; build = build_ha ~mode:(Ha.Lagged 1.0) }

(* ---- sharded multi-repository scale-out --------------------------------- *)

(* Three shard repositories, each a full site (own WAL/TM/QM) running the
   counting server on its partition of the shared request queue. Clients are
   shard-aware clerks starting from map v1, which pins every client's
   request key onto shard0; at [shard_map_change_at] an admin fiber installs
   v2 (pins dropped, pure hash placement), moving every key off shard0
   mid-run. Chosen so the change exercises everything at once:
   - under v2 the hash owners of req#s0/s1/s2 are shard2/shard1/shard1 —
     every stale-mapped client gets forwarded (and refreshed by piggyback);
   - reply queues hash to shard1/shard2/shard0, so servers finish requests
     with cross-shard 2PC reply enqueues from the very first request;
   - retries that straddle the change reach owners with no local
     registration record, forcing the registration pull. *)

let shard_nodes = [ "shard0"; "shard1"; "shard2" ]
let shard_map_change_at = 1.0
let sharded_clients = 3
let sharded_rids = rids "s" ~clients:sharded_clients

let shard_map_v1 =
  {
    Shard.version = 1;
    shards = shard_nodes;
    backups = [];
    sharded_queues = [ "req" ];
    pins =
      List.init sharded_clients (fun c ->
          (Printf.sprintf "req#s%d" c, "shard0"));
  }

let shard_map_v2 = { shard_map_v1 with Shard.version = 2; pins = [] }

(* [buggy] attaches the routers with the designed tag-stripping forwarder.
   Clients pause between requests so the second one straddles the map
   change (the pause beats [shard_map_change_at] even when outages delay
   the first request — later is fine, the map only gets newer). *)
let build_sharded ~buggy ?checkpoint_every net =
  let sites =
    List.map
      (fun name ->
        let site = make_site net ?checkpoint_every name in
        ignore
          (Server.start site ~req_queue:"req" ~threads:2 Audit.counting_handler);
        ignore (Shard.attach ~untag_forward_bug:buggy site shard_map_v1);
        (name, site))
      shard_nodes
  in
  let shard_sites () = List.map snd sites in
  ( sites,
    fun ~client_node ~replies ->
      (* The map change: an admin pushing v2 to every shard, re-pushing the
         laggards (crashed or partitioned shards ack after they come back —
         installs are idempotent by version). *)
      ignore
        (Sched.fork ~name:"mapchange" (fun () ->
             Sched.sleep shard_map_change_at;
             let rec push remaining =
               if remaining <> [] then begin
                 let acked =
                   Shard.install_from client_node ~shards:remaining shard_map_v2
                 in
                 let rest =
                   List.filter (fun sh -> not (List.mem sh acked)) remaining
                 in
                 if rest <> [] then begin
                   Sched.sleep 0.5;
                   push rest
                 end
               end
             in
             push shard_nodes));
      (* settle: forwards drain, resolvers finish cross-shard 2PC *)
      run_clients ~name:"shclient" ~clients:sharded_clients ~settle:20.0
        (fun c ->
          good_client ~pause:(shard_map_change_at +. 0.2) ~on_reply:any_reply
            ~replies
            ~connect:(fun client_id ->
              Clerk.connect ~client_node ~system:"shard0"
                ~shard_map:shard_map_v1 ~client_id ~req_queue:"req"
                ~retries:8 ())
            (Printf.sprintf "s%d" c))
        [
          Audit.exactly_once ~sites:shard_sites ~rids:(fun () -> sharded_rids);
          Audit.conservation ~name:"exec-total"
            ~expected:(List.length sharded_rids)
            ~actual:(fun () -> exec_total (shard_sites ()));
          Audit.queue_integrity ~sites:shard_sites;
          Audit.no_in_doubt ~sites:shard_sites;
        ] )

let sharded_profile =
  {
    Plan.crash_nodes = shard_nodes;
    partition_pairs =
      [ ("client", "shard0"); ("shard0", "shard1"); ("shard1", "shard2") ];
    horizon = 6.0;
    max_faults = 3;
  }

let sharded =
  {
    name = "sharded";
    profile = sharded_profile;
    probe = fault_free;
    requests = List.length sharded_rids;
    checkpoint_every = None;
    build = build_sharded ~buggy:false;
  }

(* The designed misroute-during-map-change anomaly: the forwarder strips
   registration tags, so a forwarded operation executes untagged — no
   registration record at the owner, no duplicate suppression. Fault-free
   nothing retries and it passes; a lost acknowledgment that straddles the
   map change re-Sends through the stale pin, gets forwarded again, and the
   owner executes a second copy. The explorer must catch it and ddmin must
   shrink the plan. *)
let sharded_buggy =
  { sharded with name = "sharded-buggy"; build = build_sharded ~buggy:true }

(* ---- buggy clerk: untagged Send, blind retry ---------------------------- *)

let buggy_rids = List.init 6 (Printf.sprintf "bug-r%d")

let build_buggy ?checkpoint_every net =
  let site = make_site net ?checkpoint_every "backend" in
  ignore (Server.start site ~req_queue:"req" ~threads:2 Audit.counting_handler);
  ( [ ("backend", site) ],
    fun ~client_node ~replies ->
      let call ?(timeout = 1.0) payload =
        Net.call client_node ~timeout ~dst:"backend" ~service:"qm" payload
      in
      let rec setup n =
        try
          ignore (call (Site.Q_create_queue "reply.bug"));
          ignore
            (call
               (Site.Q_register { queue = "req"; registrant = "bug"; stable = true }));
          ignore
            (call
               (Site.Q_register
                  { queue = "reply.bug"; registrant = "bug"; stable = true }))
        with _ when n > 0 ->
          Sched.sleep 0.5;
          setup (n - 1)
      in
      setup 60;
      List.iter
        (fun rid ->
          let env =
            Envelope.make ~rid ~client_id:"bug" ~reply_node:"backend"
              ~reply_queue:"reply.bug" ("pay:" ^ rid)
          in
          (* THE BUG: no registration tag on the Send, so the QM cannot
             suppress duplicates, and the retry below re-Sends the same
             rid without checking whether the first copy survived. *)
          let blind_send () =
            try
              ignore
                (call
                   (Site.Q_enqueue
                      {
                        registrant = "bug";
                        queue = "req";
                        tag = None;
                        props = Envelope.props env;
                        priority = 0;
                        body = Envelope.to_string env;
                      }))
            with e when Rrq_util.Swallow.nonfatal e -> ()
          in
          blind_send ();
          let deadline = Sched.clock () +. 12.0 in
          let rec recv () =
            let got =
              match
                call ~timeout:2.5
                  (Site.Q_dequeue
                     {
                       registrant = "bug";
                       queue = "reply.bug";
                       tag = None;
                       filter = None;
                       timeout = Some 1.0;
                     })
              with
              | Site.R_element (Some _) -> true
              | _ -> false
              | exception e when Rrq_util.Swallow.nonfatal e -> false
            in
            if got then incr replies
            else if Sched.clock () < deadline then begin
              blind_send ();
              Sched.sleep 0.1;
              recv ()
            end
          in
          recv ();
          Sched.sleep 0.6)
        buggy_rids;
      Sched.sleep 20.0;
      Audit.run (standard_auditors [ site ] buggy_rids) )

let buggy_clerk =
  {
    name = "buggy";
    profile = quickstart_profile;
    probe = fault_free;
    requests = List.length buggy_rids;
    checkpoint_every = None;
    build = build_buggy;
  }

(* ---- registry ----------------------------------------------------------- *)

let all =
  [ quickstart; quickstart_mm; ha; ha_lagged; sharded; sharded_buggy; buggy_clerk ]

let by_name n = List.find_opt (fun t -> t.name = n) all

(* ---- crash-site sweeps -------------------------------------------------- *)

let crash_sites t =
  Crashpoint.reset ();
  Fun.protect ~finally:Crashpoint.disable (fun () ->
      ignore (run_world t t.probe);
      Crashpoint.hit_counts ())

(* Site names embed the node that reaches them (["wal.sync:qm@shard2.qmlog"],
   ["tm.prepared:shard1"]); a site that names no crash node, such as a
   clerk's, kills the profile's first. *)
let default_victim t site =
  let names node =
    let nl = String.length node and sl = String.length site in
    let rec go i = i + nl <= sl && (String.sub site i nl = node || go (i + 1)) in
    go 0
  in
  match List.find_opt names t.profile.Plan.crash_nodes with
  | Some node -> node
  | None -> List.hd t.profile.Plan.crash_nodes

let crash_at ?victim t ~site ~hit ~recover_after =
  let victim =
    match victim with Some v -> v | None -> default_victim t site
  in
  run_world ~armed:(site, hit, victim, recover_after) t t.probe

(* ---- recorded runs ------------------------------------------------------ *)

type recorded = {
  rec_outcome : outcome;
  rec_metrics : Rrq_obs.Metrics.snapshot;
  rec_trace : string;
}

let run_recorded ?policy ?(trace_capacity = 262144) t plan =
  Rrq_obs.reset ~trace_capacity ();
  Fun.protect ~finally:Rrq_obs.disable (fun () ->
      let o = run ?policy t plan in
      (* The trace auditor runs while the session is still enabled, so it
         can see the events; its findings join the scenario's own. *)
      let extra = Audit.run [ Audit.exactly_once_trace () ] in
      {
        rec_outcome = { o with findings = o.findings @ extra };
        rec_metrics = Rrq_obs.Metrics.snapshot ();
        rec_trace = Rrq_obs.Trace.dump_jsonl ();
      })
