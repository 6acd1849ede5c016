(* Unit-cost probes: the host time of one call into each layer's public
   entry points, timed from outside the program on fresh state. Each probe
   builds its state, then a timed closure performs a fixed amount of work
   and returns how many units it did; the reported cost is the median over
   repetitions of ns per unit. *)

module Sched = Rrq_sim.Sched
module Net = Rrq_net.Net
module Disk = Rrq_storage.Disk
module Rng = Rrq_util.Rng
module Codec = Rrq_util.Codec
module Checksum = Rrq_util.Checksum
module Wal = Rrq_wal.Wal
module Qm = Rrq_qm.Qm
module Kvdb = Rrq_kvdb.Kvdb
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Lock = Rrq_txn.Lock

let iters = 4000
let record = String.make 160 'r'

(* Run a fiber body in a fresh scheduler; the probe's timed closure is the
   whole run. *)
let in_sched body =
  let s = Sched.create () in
  ignore (Sched.spawn s ~name:"probe" body);
  s

let qm_op () =
  let qm = Qm.open_qm (Disk.create "probe") ~name:"qm" in
  Qm.create_queue qm "q";
  let h, _ = Qm.register qm ~queue:"q" ~registrant:"p" ~stable:true in
  fun () ->
    for i = 1 to iters do
      let tag = "rid" ^ string_of_int i in
      ignore (Qm.auto_commit qm (fun id -> Qm.enqueue qm id h ~tag record));
      ignore (Qm.auto_commit qm (fun id -> Qm.dequeue qm id h ~tag Qm.No_wait))
    done;
    2 * iters

let wal_append () =
  let wal, _ = Wal.open_log (Disk.create "probe") ~name:"w" in
  fun () ->
    for _ = 1 to iters do
      Wal.append wal record;
      Wal.sync wal
    done;
    iters

let kvdb_put () =
  let kv = Kvdb.open_kv (Disk.create "probe") ~name:"kv" in
  let p = Kvdb.participant kv in
  fun () ->
    for i = 1 to iters do
      let id = Txid.make ~origin:"p" ~inc:1 ~n:i in
      ignore (Kvdb.add kv id ("acct:" ^ string_of_int (i land 4095)) 1);
      ignore (p.Tm.p_one_phase id)
    done;
    iters

(* A presumed-abort 2PC commit over two local participants that do no work
   of their own: the TM's protocol and decision-log cost alone. *)
let tm_commit () =
  let tm = Tm.open_tm (Disk.create "probe") ~name:"tm" in
  let part name =
    {
      Tm.part_name = name;
      p_prepare = (fun _ ~coordinator:_ -> true);
      p_commit = (fun _ -> true);
      p_abort = ignore;
      p_one_phase = (fun _ -> true);
      p_has_work = (fun _ -> true);
      p_is_local = true;
    }
  in
  let a = part "a" and b = part "b" in
  let s =
    in_sched (fun () ->
        for _ = 1 to iters do
          let txn = Tm.begin_txn tm in
          Tm.join txn a;
          Tm.join txn b;
          ignore (Tm.commit tm txn)
        done)
  in
  fun () ->
    Sched.run s;
    iters

let lock_acquire () =
  let lm = Lock.create () in
  fun () ->
    for i = 1 to iters do
      let id = Txid.make ~origin:"p" ~inc:1 ~n:i in
      Lock.acquire lm id ~key:("acct:" ^ string_of_int (i land 4095)) Lock.X;
      Lock.release_all lm id
    done;
    iters

(* A fresh scheduler in which node "a" makes [calls] RPCs to an echo
   service on node "b". *)
let echo_world calls =
  let s = Sched.create () in
  let net = Net.create ~latency:World.net_latency s (Rng.create 1) in
  let a = Net.make_node net "a" and b = Net.make_node net "b" in
  Net.add_service b "echo" (fun _ -> Net.Ack);
  Net.spawn_on a ~name:"probe" (fun () ->
      for _ = 1 to calls do
        ignore (Net.call a ~dst:"b" ~service:"echo" Net.Ack)
      done);
  s

let net_call () =
  let s = echo_world iters in
  fun () ->
    Sched.run s;
    iters

(* Fork a fiber that parks itself; wake it; let it finish. The unit is one
   scheduling decision, counted from the scheduler's own trace. *)
let sched_switch () =
  let s =
    in_sched (fun () ->
        for _ = 1 to iters do
          let parked = ref None in
          ignore (Sched.fork (fun () -> Sched.suspend (fun _ w -> parked := Some w)));
          Sched.yield ();
          Option.iter (fun w -> ignore (Sched.wake w ())) !parked;
          Sched.yield ()
        done)
  in
  fun () ->
    Sched.run s;
    Array.length (Sched.trace s)

(* Encode a WAL-sized commit record and checksum its frame, as the commit
   fast path does. *)
let codec_record () =
  let e = Codec.encoder () in
  fun () ->
    for i = 1 to iters do
      Codec.reset e;
      Codec.u8 e 1;
      Codec.int e i;
      Codec.string e "u00abcd-17";
      Codec.string e record;
      ignore (Sys.opaque_identity (Checksum.frame64_bytes (Codec.bytes e) ~pos:0 ~len:(Codec.length e)))
    done;
    iters

let all =
  [
    ("qm.host_ns_per_op", qm_op);
    ("wal.host_ns_per_append", wal_append);
    ("kvdb.host_ns_per_put", kvdb_put);
    ("tm.host_ns_per_commit", tm_commit);
    ("lock.host_ns_per_acquire", lock_acquire);
    ("net.host_ns_per_call", net_call);
    ("sched.host_ns_per_switch", sched_switch);
    ("codec.host_ns_per_record", codec_record);
  ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let time_once setup =
  let go = setup () in
  let t0 = Unix.gettimeofday () in
  let units = go () in
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int units

(* Median ns per unit of every probe, interleaving the probes across
   repetitions so a slow patch of the machine hits them all alike. *)
let measure ~reps =
  let samples = List.map (fun (name, _) -> (name, ref [])) all in
  for _ = 1 to reps do
    List.iter (fun (name, setup) -> let r = List.assoc name samples in r := time_once setup :: !r) all
  done;
  List.map (fun (name, r) -> (name, median !r)) samples

(* Scheduling decisions one [net_call] costs, so the ledger can keep them
   out of the scheduler's share. *)
let decisions_per_call () =
  let s = echo_world iters in
  Sched.run s;
  float_of_int (Array.length (Sched.trace s)) /. float_of_int iters
