module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched
module Tm = Rrq_txn.Tm
module Qm = Rrq_qm.Qm
module Element = Rrq_qm.Element
module Filter = Rrq_qm.Filter

type result =
  | Reply of string
  | Reply_env of Envelope.t
  | Forward of { dst : string; queue : string; env : Envelope.t }
  | No_reply
type handler = Site.t -> Tm.txn -> Envelope.t -> result

type t = { mutable n_processed : int; mutable n_aborted : int }

let handled_site req_queue = "server.handled:" ^ req_queue

(* One server transaction: dequeue - handle - enqueue result - commit.
   [site_handled] is [handled_site req_queue], built once per thread. *)
let process site ~req_queue ~site_handled ~registrant ?filter ~wait handler =
  let qm = Site.qm site in
  let h, _ = Qm.register qm ~queue:req_queue ~registrant ~stable:false in
  match
    Site.with_txn site (fun txn ->
        match Qm.dequeue qm (Tm.txn_id txn) h ?filter wait with
        | None -> `Empty
        | Some el ->
          let t0 =
            if Rrq_obs.enabled () && Sched.in_fiber () then Sched.clock ()
            else 0.0
          in
          let env = Envelope.of_string el.Element.payload in
          if Rrq_obs.enabled () then
            Rrq_obs.Trace.emit
              (Rrq_obs.Event.Server_exec
                 {
                   server = registrant;
                   rid = env.Envelope.rid;
                   txid = Rrq_txn.Txid.to_string (Tm.txn_id txn);
                 });
          let emit ~dst ~queue out =
            Site.remote_enqueue site txn ~dst ~queue
              ~props:(Envelope.props out) (Envelope.to_string out)
          in
          (match handler site txn env with
          | No_reply -> ()
          | Reply body ->
            let reply = Envelope.reply_to env ~body in
            emit ~dst:env.Envelope.reply_node ~queue:env.Envelope.reply_queue
              reply
          | Reply_env reply ->
            emit ~dst:env.Envelope.reply_node ~queue:env.Envelope.reply_queue
              reply
          | Forward { dst; queue; env = out } -> emit ~dst ~queue out);
          if Rrq_obs.enabled () && Sched.in_fiber () then
            Rrq_obs.Metrics.observe
              ("server.service:" ^ req_queue)
              (Sched.clock () -. t0);
          (* Crash site: handler ran and the reply is buffered, but the
             server transaction has not committed yet. *)
          Rrq_sim.Crashpoint.reach site_handled;
          `Done)
  with
  | outcome -> outcome
  | exception Site.Aborted _ -> `Aborted
  | exception e when Rrq_util.Swallow.nonfatal e ->
    (* Poisonous request (e.g. undecodable payload): the abort already
       returned it; the retry limit will shunt it to the error queue. *)
    `Aborted

let process_one site ~req_queue ~registrant ?filter ~wait handler =
  process site ~req_queue ~site_handled:(handled_site req_queue) ~registrant
    ?filter ~wait handler

(* One server transaction over a queue set (paper 9): take the globally
   best element across several queues. *)
let process_one_set site ~req_queues ~registrant ?filter ~wait handler =
  let qm = Site.qm site in
  let hs =
    List.map
      (fun q -> fst (Qm.register qm ~queue:q ~registrant ~stable:false))
      req_queues
  in
  match
    Site.with_txn site (fun txn ->
        match Qm.dequeue_set qm (Tm.txn_id txn) hs ?filter wait with
        | None -> `Empty
        | Some (h, el) ->
          let t0 =
            if Rrq_obs.enabled () && Sched.in_fiber () then Sched.clock ()
            else 0.0
          in
          let env = Envelope.of_string el.Element.payload in
          if Rrq_obs.enabled () then
            Rrq_obs.Trace.emit
              (Rrq_obs.Event.Server_exec
                 {
                   server = registrant;
                   rid = env.Envelope.rid;
                   txid = Rrq_txn.Txid.to_string (Tm.txn_id txn);
                 });
          let emit ~dst ~queue out =
            Site.remote_enqueue site txn ~dst ~queue
              ~props:(Envelope.props out) (Envelope.to_string out)
          in
          (match handler site txn env with
          | No_reply -> ()
          | Reply body ->
            let reply = Envelope.reply_to env ~body in
            emit ~dst:env.Envelope.reply_node ~queue:env.Envelope.reply_queue
              reply
          | Reply_env reply ->
            emit ~dst:env.Envelope.reply_node ~queue:env.Envelope.reply_queue
              reply
          | Forward { dst; queue; env = out } -> emit ~dst ~queue out);
          if Rrq_obs.enabled () && Sched.in_fiber () then
            Rrq_obs.Metrics.observe
              ("server.service:" ^ Qm.handle_queue h)
              (Sched.clock () -. t0);
          `Done)
  with
  | outcome -> outcome
  | exception Site.Aborted _ -> `Aborted
  | exception e when Rrq_util.Swallow.nonfatal e -> `Aborted

let serve t site ~req_queue ?filter ~registrant handler () =
  let site_handled = handled_site req_queue in
  let rec loop () =
    (match
       process site ~req_queue ~site_handled ~registrant ?filter ~wait:Qm.Block
         handler
     with
    | `Done -> t.n_processed <- t.n_processed + 1
    | `Empty -> ()
    | `Aborted ->
      t.n_aborted <- t.n_aborted + 1;
      Sched.sleep 0.01 (* brief backoff so abort storms cannot livelock *));
    loop ()
  in
  loop ()

let serve_set t site ~req_queues ?filter ~registrant handler () =
  let rec loop () =
    (match
       process_one_set site ~req_queues ~registrant ?filter ~wait:Qm.Block
         handler
     with
    | `Done -> t.n_processed <- t.n_processed + 1
    | `Empty -> ()
    | `Aborted ->
      t.n_aborted <- t.n_aborted + 1;
      Sched.sleep 0.01);
    loop ()
  in
  loop ()

let start_set site ~req_queues ?(threads = 1) ?filter ?name handler =
  let t = { n_processed = 0; n_aborted = 0 } in
  let base =
    match name with Some n -> n | None -> "srvset:" ^ String.concat "+" req_queues
  in
  Site.on_boot site (fun site ->
      for i = 1 to threads do
        let registrant = Printf.sprintf "%s:%d" base i in
        Net.spawn_on (Site.node site) ~name:registrant
          (serve_set t site ~req_queues ?filter ~registrant handler)
      done);
  t

let start site ~req_queue ?(threads = 1) ?filter ?name handler =
  let t = { n_processed = 0; n_aborted = 0 } in
  let base =
    match name with Some n -> n | None -> "srv:" ^ req_queue
  in
  Site.on_boot site (fun site ->
      for i = 1 to threads do
        let registrant = Printf.sprintf "%s:%d" base i in
        Net.spawn_on (Site.node site) ~name:registrant
          (serve t site ~req_queue ?filter ~registrant handler)
      done);
  t

(* Like [start], but for this incarnation only: no boot hook, so a crash
   kills the threads and nothing revives them. The HA layer uses this to run
   servers only while the hosting site is the serving primary — its own
   role logic decides when (and on which node) to start them again. *)
let start_here site ~req_queue ?(threads = 1) ?filter ?name handler =
  let t = { n_processed = 0; n_aborted = 0 } in
  let base = match name with Some n -> n | None -> "srv:" ^ req_queue in
  for i = 1 to threads do
    let registrant = Printf.sprintf "%s:%d" base i in
    Net.spawn_on (Site.node site) ~name:registrant
      (serve t site ~req_queue ?filter ~registrant handler)
  done;
  t

let processed t = t.n_processed
let aborted t = t.n_aborted
