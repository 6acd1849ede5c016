module Sched = Rrq_sim.Sched
module Ivar = Rrq_sim.Ivar
module Rng = Rrq_util.Rng
module Disk = Rrq_storage.Disk

type payload = ..
type payload += Ack

exception Rpc_timeout
exception Service_error of string

type rpc_reply = Ok_reply of payload | Err_reply of string

type node = {
  nname : string;
  ndisk : Disk.t;
  net : t;
  mutable up : bool;
  (* service name -> (name of the fiber that serves one call, handler) *)
  services : (string, string * (payload -> payload)) Hashtbl.t;
  mutable boot_proc : node -> unit;
}

and t = {
  tsched : Sched.t;
  rng : Rng.t;
  mutable latency : float;
  mutable jitter : float;
  mutable drop_rate : float;
  cuts : (string * string, unit) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;
  mutable n_sent : int;
  mutable n_dropped : int;
}

let create ?(latency = 0.005) ?(jitter = 0.0) ?(drop_rate = 0.0) tsched rng =
  {
    tsched;
    rng;
    latency;
    jitter;
    drop_rate;
    cuts = Hashtbl.create 4;
    nodes = Hashtbl.create 8;
    n_sent = 0;
    n_dropped = 0;
  }

let sched t = t.tsched
let set_drop_rate t r = t.drop_rate <- r
let set_latency t l = t.latency <- l

let pair a b = if a <= b then (a, b) else (b, a)

let partition t a b =
  Sched.note_fault t.tsched (Printf.sprintf "partition %s/%s" a b);
  Hashtbl.replace t.cuts (pair a b) ()

let heal t a b =
  Sched.note_fault t.tsched (Printf.sprintf "heal %s/%s" a b);
  Hashtbl.remove t.cuts (pair a b)

let partitioned t a b = Hashtbl.mem t.cuts (pair a b)

let make_node ?(torn_writes = false) ?sync_latency t nname =
  if Hashtbl.mem t.nodes nname then invalid_arg ("duplicate node " ^ nname);
  let node =
    {
      nname;
      ndisk = Disk.create ~torn_writes ?sync_latency ~rng:(Rng.split t.rng) nname;
      net = t;
      up = true;
      services = Hashtbl.create 8;
      boot_proc = (fun _ -> ());
    }
  in
  Hashtbl.replace t.nodes nname node;
  node

let node t nname = Hashtbl.find t.nodes nname
let node_name n = n.nname
let disk n = n.ndisk
let is_up n = n.up
let network n = n.net

let spawn_on n ~name f =
  if n.up then ignore (Sched.spawn n.net.tsched ~group:n.nname ~name f)

let add_service n sname handler =
  Hashtbl.replace n.services sname (n.nname ^ ":" ^ sname, handler)
let set_boot n proc = n.boot_proc <- proc
let boot n = n.boot_proc n

(* Deliver a thunk to [dst] after network delay, unless the message is
   dropped, the pair is partitioned, or the destination is down at delivery
   time. *)
let transmit t ~src ~dst (k : node -> unit) =
  t.n_sent <- t.n_sent + 1;
  let dropped =
    (t.drop_rate > 0.0 && Rng.chance t.rng t.drop_rate)
    || partitioned t src dst
  in
  if dropped then t.n_dropped <- t.n_dropped + 1
  else begin
    let delay = t.latency +. (if t.jitter > 0.0 then Rng.float t.rng t.jitter else 0.0) in
    Sched.at t.tsched
      (Sched.now t.tsched +. delay)
      (fun () ->
        match Hashtbl.find_opt t.nodes dst with
        | Some n when n.up -> k n
        | Some _ | None -> t.n_dropped <- t.n_dropped + 1)
  end

let run_service dst ~service ~request reply_k =
  match Hashtbl.find_opt dst.services service with
  | None -> reply_k (Err_reply ("no such service: " ^ service))
  | Some (fiber_name, handler) ->
    ignore
      (Sched.spawn dst.net.tsched ~group:dst.nname ~name:fiber_name
         (fun () ->
           let reply =
             (* Nonfatal only: an injected crash inside a handler must kill
                this service fiber, not surface as an error reply sent from
                a node that is supposed to be down. *)
             match handler request with
             | v -> Ok_reply v
             | exception e when Rrq_util.Swallow.nonfatal e ->
               Err_reply (Printexc.to_string e)
           in
           reply_k reply))

let call src ?(timeout = 5.0) ~dst ~service request =
  let t = src.net in
  let iv = Ivar.create () in
  transmit t ~src:src.nname ~dst (fun dnode ->
      run_service dnode ~service ~request (fun reply ->
          transmit t ~src:dnode.nname ~dst:src.nname (fun _src_node ->
              Ivar.fill iv reply)));
  match Ivar.read_timeout iv timeout with
  | None -> raise Rpc_timeout
  | Some (Ok_reply v) -> v
  | Some (Err_reply msg) -> raise (Service_error msg)

let cast src ~dst ~service request =
  transmit src.net ~src:src.nname ~dst (fun dnode ->
      run_service dnode ~service ~request (fun _ -> ()))

let crash n =
  Sched.note_fault n.net.tsched ("crash " ^ n.nname);
  n.up <- false;
  Sched.kill_group n.net.tsched n.nname;
  Hashtbl.reset n.services;
  Disk.crash n.ndisk

let restart n =
  Sched.note_fault n.net.tsched ("restart " ^ n.nname);
  n.up <- true;
  n.boot_proc n

let crash_restart n ~after =
  crash n;
  Sched.at n.net.tsched (Sched.now n.net.tsched +. after) (fun () -> restart n)

let messages_sent t = t.n_sent
let messages_dropped t = t.n_dropped
