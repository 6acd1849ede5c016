module Codec = Rrq_util.Codec
module Swallow = Rrq_util.Swallow
module Wal = Rrq_wal.Wal
module Group_commit = Rrq_wal.Group_commit
module Sched = Rrq_sim.Sched

type outcome = Committed | Aborted

type participant = {
  part_name : string;
  p_prepare : Txid.t -> coordinator:string -> bool;
  p_commit : Txid.t -> bool;
  p_abort : Txid.t -> unit;
  p_one_phase : Txid.t -> bool;
  p_has_work : Txid.t -> bool;
  p_is_local : bool;
}

type status = Active | Finished of outcome

type txn = {
  id : Txid.t;
  mutable participants : participant list; (* reverse join order *)
  mutable status : status;
  mutable commit_hooks : (unit -> unit) list;
  mutable abort_hooks : (unit -> unit) list;
}

type t = {
  tm_name : string;
  (* Crash-site names, built once per TM. *)
  site_prepared : string;
  site_decided : string;
  wal : Wal.t;
  gc : Group_commit.t;
  inc : int;
  mutable next_n : int;
  (* Commit decisions logged but not yet acknowledged by every participant:
     txid -> unacked participant names. *)
  pending : (Txid.t, string list ref) Hashtbl.t;
  (* Transactions whose decision is not yet durable, so queries about them
     must answer [`Pending]: [] while voting, then the participant names
     once the decision record is appended and its force is under way. A
     checkpoint taken in that window must carry the decision (see
     [encode_snapshot]). *)
  deciding : (Txid.t, string list) Hashtbl.t;
  (* Live transaction handles, for force_abort. *)
  live : (Txid.t, txn) Hashtbl.t;
  mutable resolver : string -> participant option;
  mutable n_committed : int;
  mutable n_aborted : int;
}

(* Log record kinds. *)
let k_incarnation = 1
let k_decision = 2
let k_end = 3

(* Records are encoded into the log's reused scratch encoder and framed in
   place; see [Wal.append_enc]. *)
let append_decision gc id parts =
  let e = Group_commit.encoder gc in
  Codec.u8 e k_decision;
  Txid.encode e id;
  Codec.list Codec.string e parts;
  Group_commit.append_enc gc e

(* The checkpoint snapshot: the incarnation count (the records that
   counted it are truncated away) and every commit decision a crash must
   still find, as [(txid, participants still to be told)]. That is the
   unacknowledged [pending] decisions and also those whose record is
   appended but whose force has not returned: [Wal.checkpoint] makes every
   appended record durable by covering it with the snapshot, and a fiber
   parked in the decision force would otherwise resume after the
   checkpoint with its decision in a deleted segment. *)
let encode_snapshot t =
  let e = Codec.encoder () in
  Codec.int e t.inc;
  let decided =
    Hashtbl.fold
      (fun id parts acc -> if parts = [] then acc else (id, parts) :: acc)
      t.deciding []
  in
  let decided =
    Hashtbl.fold (fun id parts acc -> (id, !parts) :: acc) t.pending decided
  in
  Codec.list
    (fun e (id, parts) ->
      Txid.encode e id;
      Codec.list Codec.string e parts)
    e decided;
  Codec.to_string e

let restore_snapshot snap pending =
  let d = Codec.decoder snap in
  let inc = Codec.get_int d in
  List.iter
    (fun (id, parts) -> Hashtbl.replace pending id (ref parts))
    (Codec.get_list
       (fun d ->
         let id = Txid.decode d in
         (id, Codec.get_list Codec.get_string d))
       d);
  inc

let open_tm ?commit_policy disk ~name:tm_name =
  let wal, recovered = Wal.open_log disk ~name:(tm_name ^ ".tmlog") in
  let gc = Group_commit.create ?policy:commit_policy wal in
  let pending = Hashtbl.create 8 in
  let inc =
    ref
      (match recovered.Wal.snapshot with
      | Some snap -> restore_snapshot snap pending
      | None -> 0)
  in
  List.iter
    (fun payload ->
      let d = Codec.decoder payload in
      let kind = Codec.get_u8 d in
      if kind = k_incarnation then incr inc
      else if kind = k_decision then begin
        let id = Txid.decode d in
        let parts = Codec.get_list Codec.get_string d in
        Hashtbl.replace pending id (ref parts)
      end
      else if kind = k_end then Hashtbl.remove pending (Txid.decode d)
      else failwith "tm: unknown log record")
    recovered.Wal.records;
  let e = Group_commit.encoder gc in
  Codec.u8 e k_incarnation;
  Group_commit.append_enc gc e;
  Group_commit.force gc;
  {
    tm_name;
    site_prepared = "tm.prepared:" ^ tm_name;
    site_decided = "tm.decided:" ^ tm_name;
    wal;
    gc;
    inc = !inc + 1;
    next_n = 0;
    pending;
    deciding = Hashtbl.create 8;
    live = Hashtbl.create 16;
    resolver = (fun _ -> None);
    n_committed = 0;
    n_aborted = 0;
  }

let name t = t.tm_name

let begin_txn t =
  t.next_n <- t.next_n + 1;
  let txn =
    {
      id = Txid.make ~origin:t.tm_name ~inc:t.inc ~n:t.next_n;
      participants = [];
      status = Active;
      commit_hooks = [];
      abort_hooks = [];
    }
  in
  Hashtbl.replace t.live txn.id txn;
  if Rrq_obs.enabled () then begin
    Rrq_obs.Metrics.inc ("tm.begins:" ^ t.tm_name);
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Txn_begin
         { tm = t.tm_name; txid = Txid.to_string txn.id })
  end;
  txn

let txn_id txn = txn.id

let join txn p =
  match txn.status with
  | Finished Aborted ->
    (* Force-aborted under the owner's feet: undo whatever the owner did at
       this RM after the abort, so nothing leaks. *)
    Swallow.unit (fun () -> p.p_abort txn.id)
  | Finished Committed -> invalid_arg "Tm.join: transaction already committed"
  | Active ->
    if not (List.exists (fun q -> q.part_name = p.part_name) txn.participants)
    then txn.participants <- p :: txn.participants

let on_commit txn f = txn.commit_hooks <- f :: txn.commit_hooks
let on_abort txn f = txn.abort_hooks <- f :: txn.abort_hooks
let is_active txn = txn.status = Active

let finish txn outcome =
  txn.status <- Finished outcome;
  let hooks =
    match outcome with Committed -> txn.commit_hooks | Aborted -> txn.abort_hooks
  in
  txn.commit_hooks <- [];
  txn.abort_hooks <- [];
  List.iter (fun f -> f ()) (List.rev hooks)

(* End records are a cleanup optimization; they need not be forced. They
   go to the WAL directly, bypassing group commit, so they are not
   shipped. *)
let log_end t id =
  Hashtbl.remove t.pending id;
  let e = Wal.encoder t.wal in
  Codec.u8 e k_end;
  Txid.encode e id;
  Wal.append_enc t.wal e

(* Retry commit delivery until every participant has acknowledged. *)
let redeliver t id resolve =
  let rec loop () =
    match Hashtbl.find_opt t.pending id with
    | None -> ()
    | Some remaining ->
      remaining :=
        List.filter
          (fun pname ->
            match resolve pname with
            | None -> true
            | Some p -> not (Swallow.run ~default:false (fun () -> p.p_commit id)))
          !remaining;
      if !remaining = [] then log_end t id
      else begin
        Sched.sleep_background 1.0;
        loop ()
      end
  in
  loop ()

let deliver_commits t id parts =
  let unacked =
    List.filter (fun p -> not (Swallow.run ~default:false (fun () -> p.p_commit id))) parts
  in
  if unacked = [] then log_end t id
  else begin
    (* Keep retrying in the background; closures remain valid while this
       incarnation lives, and recovery re-resolves by name otherwise. *)
    let by_name pname =
      match List.find_opt (fun p -> p.part_name = pname) parts with
      | Some p -> Some p
      | None -> t.resolver pname
    in
    Hashtbl.replace t.pending id (ref (List.map (fun p -> p.part_name) unacked));
    ignore
      (Sched.fork ~name:("redeliver:" ^ Txid.to_string id) (fun () ->
           redeliver t id by_name))
  end

let commit t txn =
  match txn.status with
  | Finished Aborted ->
    (* Force-aborted earlier: re-notify so locks or buffers acquired since
       the abort are cleaned up (participant aborts are idempotent). *)
    List.iter
      (fun p -> Swallow.unit (fun () -> p.p_abort txn.id))
      (List.rev txn.participants);
    Aborted
  | Finished Committed -> Committed
  | Active -> begin
    (* Commit latency runs from here to the durable outcome; under a
       batched force the fiber may park inside [Group_commit.force], and
       that wait is exactly what the histogram should show. *)
    let t0 =
      if Rrq_obs.enabled () && Sched.in_fiber () then Sched.clock () else 0.0
    in
    let commit_done () =
      t.n_committed <- t.n_committed + 1;
      if Rrq_obs.enabled () then begin
        Rrq_obs.Metrics.inc ("tm.commits:" ^ t.tm_name);
        if Sched.in_fiber () then
          Rrq_obs.Metrics.observe
            ("tm.commit.latency:" ^ t.tm_name)
            (Sched.clock () -. t0);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Txn_commit
             { tm = t.tm_name; txid = Txid.to_string txn.id })
      end
    in
    let abort_done () =
      t.n_aborted <- t.n_aborted + 1;
      if Rrq_obs.enabled () then begin
        Rrq_obs.Metrics.inc ("tm.aborts:" ^ t.tm_name);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Txn_abort
             { tm = t.tm_name; txid = Txid.to_string txn.id })
      end
    in
    Hashtbl.remove t.live txn.id;
    (* Participants that buffered no update are excused with an abort
       notice, which merely releases their read locks. *)
    let parts, workless =
      List.partition
        (fun p -> Swallow.run ~default:true (fun () -> p.p_has_work txn.id))
        (List.rev txn.participants)
    in
    List.iter (fun p -> Swallow.unit (fun () -> p.p_abort txn.id)) workless;
    match parts with
    | [] ->
      commit_done ();
      finish txn Committed;
      Committed
    | [ p ] when p.p_is_local ->
      if Swallow.run ~default:false (fun () -> p.p_one_phase txn.id) then begin
        commit_done ();
        finish txn Committed;
        Committed
      end
      else begin
        abort_done ();
        Swallow.unit (fun () -> p.p_abort txn.id);
        finish txn Aborted;
        Aborted
      end
    | _ :: _ ->
      Hashtbl.replace t.deciding txn.id [];
      let all_yes =
        List.for_all
          (fun p ->
            Swallow.run ~default:false (fun () ->
                p.p_prepare txn.id ~coordinator:t.tm_name))
          parts
      in
      if not all_yes then begin
        Hashtbl.remove t.deciding txn.id;
        List.iter (fun p -> Swallow.unit (fun () -> p.p_abort txn.id)) parts;
        abort_done ();
        finish txn Aborted;
        Aborted
      end
      else begin
        let pnames = List.map (fun p -> p.part_name) parts in
        Rrq_sim.Crashpoint.reach t.site_prepared;
        (* The txn stays in [deciding] (answering [`Pending]) until the
           decision record is durable: under a batched force this fiber may
           park here, and resolvers must not observe a commit outcome that a
           crash could still revoke. *)
        Hashtbl.replace t.deciding txn.id pnames;
        append_decision t.gc txn.id pnames;
        Group_commit.force t.gc;
        Rrq_sim.Crashpoint.reach t.site_decided;
        Hashtbl.replace t.pending txn.id (ref pnames);
        Hashtbl.remove t.deciding txn.id;
        commit_done ();
        finish txn Committed;
        deliver_commits t txn.id parts;
        Committed
      end
  end

let abort t txn =
  match txn.status with
  | Finished _ -> ()
  | Active ->
    Hashtbl.remove t.live txn.id;
    List.iter (fun p -> Swallow.unit (fun () -> p.p_abort txn.id)) (List.rev txn.participants);
    t.n_aborted <- t.n_aborted + 1;
    if Rrq_obs.enabled () then begin
      Rrq_obs.Metrics.inc ("tm.aborts:" ^ t.tm_name);
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Txn_abort
           { tm = t.tm_name; txid = Txid.to_string txn.id })
    end;
    finish txn Aborted

let force_abort t id =
  match Hashtbl.find_opt t.live id with
  | None -> false
  | Some txn ->
    abort t txn;
    true

let decision t id =
  if Hashtbl.mem t.pending id then `Committed
  else if Hashtbl.mem t.deciding id then `Pending
  else `Aborted (* presumed abort: no logged decision, not deciding *)

let set_resolver t f = t.resolver <- f

let recover_pending t =
  Hashtbl.iter
    (fun id _remaining ->
      ignore
        (Sched.fork ~name:("redeliver:" ^ Txid.to_string id) (fun () ->
             redeliver t id (fun pname -> t.resolver pname))))
    t.pending

let checkpoint t = Wal.checkpoint t.wal (encode_snapshot t)

let maybe_checkpoint t ~every =
  if Wal.records_since_checkpoint t.wal >= every then checkpoint t

let live_log_bytes t = Wal.live_log_bytes t.wal

let pending_decisions t = Hashtbl.fold (fun id _ acc -> id :: acc) t.pending []
let stats t = (t.n_committed, t.n_aborted)

let group_commit t = t.gc

(* Under presumed abort only COMMIT decisions are logged, so a shipped TM
   record either names a committed transaction and its participants or is
   bookkeeping (incarnation/end) the backup can ignore. *)
let shipped_decision payload =
  let d = Codec.decoder payload in
  match Codec.get_u8 d with
  | k when k = k_decision ->
    let id = Txid.decode d in
    Some (id, Codec.get_list Codec.get_string d)
  | _ -> None
  | exception Codec.Decode_error _ -> None
