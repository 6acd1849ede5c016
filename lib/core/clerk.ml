module Net = Rrq_net.Net
module Sched = Rrq_sim.Sched

type t = {
  cnode : Net.node;
  (* Current candidate primary. [ring] holds every repository node the
     clerk may talk to (configured system first); an unreachable or
     standby-gated candidate rotates [system] to the next one, which is
     all the client-side failover there is — duplicate suppression via
     registration tags makes the retry against the new primary safe. *)
  mutable system : string;
  ring : string list;
  client_id : string;
  (* Crash-site names, built once per clerk. *)
  site_sent : string;
  site_received : string;
  req_queue : string;
  reply_q : string;
  rpc_timeout : float;
  retries : int;
  strict : bool;
  mutable fsm : Client_fsm.state;
  mutable last_rid : string option;
  mutable last_eid : int64 option;
  (* Virtual send time of the outstanding request, for the rtt metric. *)
  mutable sent_at : float option;
  (* Shard routing ({!Shard}): when set, every operation is wrapped in
     [Sh_routed] and sent to the owner of its routing key (then the
     owner's backup candidates), instead of to [system]. Replies piggyback
     newer maps; a fully unreachable owner triggers an explicit map
     refresh, bounded by the same retry budget and backoff as the plain
     ring rotation — a stale map can cost at most [retries] refresh
     rounds, never an unbounded forwarding loop. *)
  mutable smap : Shard.map option;
}

type connect_info = {
  s_rid : string option;
  r_rid : string option;
  ckpt : string option;
}

exception Unavailable of string
exception Protocol_violation of string

(* Track (and under [strict], enforce) the fig. 1/7 state machine. *)
let transition t event =
  match Client_fsm.step t.fsm event with
  | Some next ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Client_fsm
           {
             client = t.client_id;
             from_state = Client_fsm.state_to_string t.fsm;
             event = Client_fsm.event_to_string event;
             to_state = Client_fsm.state_to_string next;
           });
    t.fsm <- next
  | None ->
    if t.strict then
      raise
        (Protocol_violation
           (Printf.sprintf "%s is illegal in state %s"
              (Client_fsm.event_to_string event)
              (Client_fsm.state_to_string t.fsm)))

let rotate t =
  match t.ring with
  | [] | [ _ ] -> ()
  | ring ->
    let rec next = function
      | a :: b :: _ when a = t.system -> b
      | _ :: tl -> next tl
      | [] -> List.hd ring
    in
    t.system <- next ring

(* Adopt a newer shard map. The [shard.refresh] counter is the visible
   evidence of every map refresh, piggybacked or explicit. *)
let install_map t (m : Shard.map) =
  match t.smap with
  | Some cur when m.Shard.version <= cur.Shard.version -> ()
  | Some _ ->
    t.smap <- Some m;
    Rrq_obs.Metrics.inc "shard.refresh"
  | None -> t.smap <- Some m

(* Explicit refresh: ask any repository the map names for its current map
   (used when every candidate for a key is unreachable — the map may have
   moved the key from under us). *)
let refresh_map t =
  match t.smap with
  | None -> ()
  | Some m ->
    let rec try_nodes = function
      | [] -> ()
      | dst :: rest -> (
        match
          Net.call t.cnode ~timeout:t.rpc_timeout ~dst ~service:"shard"
            Shard.Sh_get_map
        with
        | Shard.Sh_map nm when nm.Shard.version > m.Shard.version ->
          install_map t nm
        | _ -> try_nodes rest
        | exception (Net.Rpc_timeout | Net.Service_error _) -> try_nodes rest)
    in
    try_nodes (Shard.all_nodes m)

(* The owner (under the current map) of one of this client's queues; the
   configured [system] when not sharded. *)
let home t queue =
  match t.smap with
  | None -> t.system
  | Some m ->
    Shard.owner m (Shard.key_for m ~queue ~registrant:t.client_id)

let rpc ?(extra_timeout = 0.0) ?queue t msg =
  match t.smap with
  | None ->
    let rec go attempts_left =
      match
        Net.call t.cnode
          ~timeout:(t.rpc_timeout +. extra_timeout)
          ~dst:t.system ~service:"qm" msg
      with
      | v -> v
      | exception (Net.Rpc_timeout | Net.Service_error _) ->
        if attempts_left <= 0 then
          raise (Unavailable (Printf.sprintf "system %s unreachable" t.system))
        else begin
          rotate t;
          Sched.sleep (0.5 *. t.rpc_timeout);
          go (attempts_left - 1)
        end
    in
    go t.retries
  | Some _ ->
    let q = match queue with Some q -> q | None -> t.req_queue in
    let rec go attempts_left =
      let m = match t.smap with Some m -> m | None -> assert false in
      let key = Shard.key_for m ~queue:q ~registrant:t.client_id in
      let rec try_cands = function
        | [] -> None
        | dst :: rest -> (
          match
            Net.call t.cnode
              ~timeout:(t.rpc_timeout +. extra_timeout)
              ~dst ~service:"qm"
              (Shard.Sh_routed
                 { version = m.Shard.version; hops = 0; inner = msg })
          with
          | Shard.Sh_reply { newer; inner } ->
            (match newer with Some nm -> install_map t nm | None -> ());
            Some inner
          | other -> Some other
          | exception (Net.Rpc_timeout | Net.Service_error _) ->
            try_cands rest)
      in
      match try_cands (Shard.candidates m key) with
      | Some v -> v
      | None ->
        if attempts_left <= 0 then
          raise
            (Unavailable (Printf.sprintf "shard owner of %s unreachable" key))
        else begin
          refresh_map t;
          Sched.sleep (0.5 *. t.rpc_timeout);
          go (attempts_left - 1)
        end
    in
    go t.retries

let do_connect t =
  (match rpc t ~queue:t.reply_q (Site.Q_create_queue t.reply_q) with
  | Net.Ack -> ()
  | _ -> raise (Unavailable "unexpected reply to create-queue"));
  let s_rid, s_eid =
    match
      rpc t ~queue:t.req_queue
        (Site.Q_register
           { queue = t.req_queue; registrant = t.client_id; stable = true })
    with
    | Site.R_registered { last_tag; last_eid; _ } ->
      ((match last_tag with Some tag -> Tag.rid_piece tag | None -> None), last_eid)
    | _ -> raise (Unavailable "unexpected reply to register")
  in
  let r_rid, ckpt =
    match
      rpc t ~queue:t.reply_q
        (Site.Q_register
           { queue = t.reply_q; registrant = t.client_id; stable = true })
    with
    | Site.R_registered { last_tag = Some tag; _ } ->
      (Tag.rid_piece tag, Tag.ckpt_piece tag)
    | Site.R_registered { last_tag = None; _ } -> (None, None)
    | _ -> raise (Unavailable "unexpected reply to register")
  in
  t.last_rid <- s_rid;
  t.last_eid <- s_eid;
  t.fsm <- Client_fsm.Disconnected;
  transition t
    (match (s_rid, r_rid) with
    | None, _ -> Client_fsm.Connect_fresh
    | Some s, Some r when s = r -> Client_fsm.Connect_reply_recvd
    | Some _, _ -> Client_fsm.Connect_req_sent);
  { s_rid; r_rid; ckpt }

let connect ~client_node ~system ?(backups = []) ?shard_map ~client_id
    ~req_queue ?reply_queue ?(rpc_timeout = 1.0) ?(retries = 10)
    ?(strict = false) () =
  let t =
    {
      cnode = client_node;
      system;
      ring = system :: List.filter (fun b -> b <> system) backups;
      client_id;
      site_sent = "clerk.sent:" ^ client_id;
      site_received = "clerk.received:" ^ client_id;
      req_queue;
      reply_q =
        (match reply_queue with Some q -> q | None -> "reply." ^ client_id);
      rpc_timeout;
      retries;
      strict;
      fsm = Client_fsm.Disconnected;
      last_rid = None;
      last_eid = None;
      sent_at = None;
      smap = shard_map;
    }
  in
  let info = do_connect t in
  (t, info)

let reconnect t = do_connect t

let disconnect t =
  transition t Client_fsm.Disconnect;
  ignore
    (rpc t ~queue:t.req_queue
       (Site.Q_deregister { registrant = t.client_id; queue = t.req_queue }));
  ignore
    (rpc t ~queue:t.reply_q
       (Site.Q_deregister { registrant = t.client_id; queue = t.reply_q }))

let client_id t = t.client_id
let reply_queue t = t.reply_q

(* The reply destination stamped into every request: the reply queue's
   owning shard under the current map (stable across map changes by the
   {!Shard} non-sharded-queue constraint), or the plain system site. *)
let envelope t ~rid ?kind ?scratch ?step ~body () =
  Envelope.make ~rid ~client_id:t.client_id ~reply_node:(home t t.reply_q)
    ~reply_queue:t.reply_q ?kind ?scratch ?step body

let send t ~rid ?(props = []) ?kind ?scratch ?step body =
  (* Retrying the same Send is recovery, not a transition; an intermediate
     input (step > 0) is the fig. 7 Send-intermediate edge. *)
  if t.last_rid <> Some rid then
    transition t
      (match step with
      | Some n when n > 0 -> Client_fsm.Send_intermediate
      | _ -> Client_fsm.Send);
  let env = envelope t ~rid ?kind ?scratch ?step ~body () in
  match
    rpc t ~queue:t.req_queue
      (Site.Q_enqueue
         {
           registrant = t.client_id;
           queue = t.req_queue;
           tag = Some (Tag.send ~rid);
           props = Envelope.props env @ props;
           priority = 0;
           body = Envelope.to_string env;
         })
  with
  | Site.R_eid eid ->
    t.last_rid <- Some rid;
    t.last_eid <- Some eid;
    if Rrq_obs.enabled () then begin
      if Sched.in_fiber () then t.sent_at <- Some (Sched.clock ());
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Clerk_send { client = t.client_id; rid; eid })
    end;
    Rrq_sim.Crashpoint.reach t.site_sent;
    eid
  | _ -> raise (Unavailable "unexpected reply to enqueue")

let send_oneway t ~rid ?(props = []) body =
  let env = envelope t ~rid ~body () in
  t.last_rid <- Some rid;
  t.last_eid <- None;
  let op =
    Site.Q_enqueue
      {
        registrant = t.client_id;
        queue = t.req_queue;
        tag = Some (Tag.send ~rid);
        props = Envelope.props env @ props;
        priority = 0;
        body = Envelope.to_string env;
      }
  in
  match t.smap with
  | None -> Net.cast t.cnode ~dst:t.system ~service:"qm" op
  | Some m ->
    Net.cast t.cnode ~dst:(home t t.req_queue) ~service:"qm"
      (Shard.Sh_routed { version = m.Shard.version; hops = 0; inner = op })

let decode_view = function
  | None -> None
  | Some v -> Some (Envelope.of_string v.Site.v_payload)

let receive t ?ckpt ?(timeout = 30.0) () =
  match
    rpc ~extra_timeout:timeout t ~queue:t.reply_q
      (Site.Q_dequeue
         {
           registrant = t.client_id;
           queue = t.reply_q;
           tag = Some (Tag.receive ~rid:t.last_rid ~ckpt);
           filter = None;
           timeout = Some timeout;
         })
  with
  | Site.R_element v ->
    let reply = decode_view v in
    (match reply with
    | Some r when r.Envelope.kind = "intermediate" ->
      transition t Client_fsm.Receive_intermediate
    | Some _ ->
      transition t Client_fsm.Receive_reply;
      if Rrq_obs.enabled () then begin
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Clerk_receive
             {
               client = t.client_id;
               rid = Option.value ~default:"" t.last_rid;
             });
        (match t.sent_at with
        | Some t0 when Sched.in_fiber () ->
          Rrq_obs.Metrics.observe
            ("clerk.rtt:" ^ t.client_id)
            (Sched.clock () -. t0)
        | _ -> ());
        t.sent_at <- None
      end;
      Rrq_sim.Crashpoint.reach t.site_received
    | None -> () (* timeout: no transition; the client will retry *));
    reply
  | _ -> raise (Unavailable "unexpected reply to dequeue")

let rereceive t =
  transition t Client_fsm.Rereceive;
  match
    rpc t ~queue:t.reply_q
      (Site.Q_read_last { registrant = t.client_id; queue = t.reply_q })
  with
  | Site.R_element v -> decode_view v
  | _ -> raise (Unavailable "unexpected reply to read-last")

let transceive t ~rid ?props ?ckpt ?timeout body =
  ignore (send t ~rid ?props body);
  receive t ?ckpt ?timeout ()

let cancel_last_request t =
  match t.last_eid with
  | None -> false
  | Some eid -> begin
    match rpc t ~queue:t.req_queue (Site.Q_kill eid) with
    | Site.R_bool b ->
      (* A successful cancel closes the request: the client may Send anew. *)
      if b && t.fsm = Client_fsm.Req_sent then t.fsm <- Client_fsm.Reply_recvd;
      b
    | _ -> false
  end

let cancel_request_anywhere t ~sites ~rid =
  let filter =
    Rrq_qm.Filter.And
      (Rrq_qm.Filter.Prop_eq ("client", t.client_id),
       Rrq_qm.Filter.Prop_eq ("rid", rid))
  in
  List.exists
    (fun site ->
      match
        Net.call t.cnode ~timeout:t.rpc_timeout ~dst:site ~service:"qm"
          (Site.Q_kill_where filter)
      with
      | Site.R_int n -> n > 0
      | _ -> false
      | exception (Net.Rpc_timeout | Net.Service_error _) -> false)
    sites

let last_sent_eid t = t.last_eid
let state t = t.fsm
let system t = t.system
let shard_map t = t.smap
let set_shard_map t m = install_map t m
