module Codec = Rrq_util.Codec
module Wal = Rrq_wal.Wal
module Group_commit = Rrq_wal.Group_commit

module type STATE = sig
  type state
  type redo
  type pending

  val log_suffix : string
  val encode_redo : Codec.encoder -> redo -> unit
  val decode_redo : Codec.decoder -> redo
  val logged : state -> redo -> bool
  val apply : state -> live:bool -> redo -> unit
  val pending : state -> redo list -> pending
  val after_force : state -> pending -> unit
  val compensate : state -> redo list -> redo list
  val clock : state -> float
  val snapshot : Codec.encoder -> state -> unit
  val restore : state -> Codec.decoder -> unit
  val relock : state -> Txid.t -> redo list -> unit
end

module type SHARED = sig
  type t

  val in_doubt : t -> (Txid.t * string) list
  val is_prepared : t -> Txid.t -> bool
  val checkpoint : t -> unit
  val maybe_checkpoint : t -> every:int -> unit
  val live_log_bytes : t -> int
  val group_commit : t -> Group_commit.t
  val standby_apply : t -> string -> Txid.t option
  val standby_force : t -> unit
  val standby_install : t -> string -> unit
  val encode_snapshot : t -> string
end

module Make (S : STATE) = struct
  type ws = {
    id : Txid.t;
    mutable redos : S.redo list; (* newest first *)
    mutable activity : float;
  }

  type prepared = { coordinator : string; redos : S.redo list (* oldest first *) }

  type t = {
    rm_name : string;
    wal : Wal.t;
    gc : Group_commit.t;
    st : S.state;
    workspaces : (Txid.t, ws) Hashtbl.t;
    (* One-slot workspace cache: the most recent transaction's workspace
       lives here, OUTSIDE the table, so the common one-open-transaction
       flow never pays a Txid-keyed hash. A second concurrent transaction
       spills the cached one back into the table. [no_ws] when empty. *)
    mutable cached : ws;
    prepared_txns : (Txid.t, prepared) Hashtbl.t;
  }

  (* The empty cache slot, and [ws_find]'s "no workspace" answer (a
     sentinel rather than an option: the lookup runs on every update, and a
     cache hit or a miss allocates nothing). Never mutated. *)
  let no_ws = { id = Txid.make ~origin:"" ~inc:(-1) ~n:(-1); redos = []; activity = 0.0 }

  (* Log record kinds. *)
  let k_one_phase = 1
  let k_prepare = 2
  let k_commit = 3
  let k_abort = 4
  let k_now = 5

  (* Every record is encoded into the log's reused scratch encoder and
     framed in place; see [Wal.append_enc]. *)
  let append_record t kind txid_opt coordinator redos =
    let e = Group_commit.encoder t.gc in
    Codec.u8 e kind;
    Codec.option Txid.encode e txid_opt;
    Codec.string e coordinator;
    Codec.list S.encode_redo e redos;
    Group_commit.append_enc t.gc e

  let decode_record payload =
    let d = Codec.decoder payload in
    let kind = Codec.get_u8 d in
    let txid = Codec.get_option Txid.decode d in
    let coordinator = Codec.get_string d in
    let redos = Codec.get_list S.decode_redo d in
    (kind, txid, coordinator, redos)

  let rec apply_all st ~live = function
    | [] -> ()
    | r :: rest ->
      S.apply st ~live r;
      apply_all st ~live rest

  let rec all_logged st = function
    | [] -> true
    | r :: rest -> S.logged st r && all_logged st rest

  let rec logged_only st = function
    | [] -> []
    | r :: rest ->
      if S.logged st r then r :: logged_only st rest else logged_only st rest

  (* The updates that go to the log: [redos] itself when all of them do. *)
  let logged_subset st redos =
    if all_logged st redos then redos else logged_only st redos

  (* Returns the txid a 2PC commit record committed, for the standby. *)
  let replay t payload =
    let kind, txid, coordinator, redos = decode_record payload in
    let id () =
      match txid with
      | Some id -> id
      | None -> failwith (Printf.sprintf "rm: record kind %d without txid" kind)
    in
    if kind = k_one_phase || kind = k_now then begin
      apply_all t.st ~live:false redos;
      None
    end
    else if kind = k_prepare then begin
      Hashtbl.replace t.prepared_txns (id ()) { coordinator; redos };
      None
    end
    else if kind = k_commit then begin
      let id = id () in
      (match Hashtbl.find_opt t.prepared_txns id with
      | Some p ->
        apply_all t.st ~live:false p.redos;
        Hashtbl.remove t.prepared_txns id
      | None -> () (* resolved before the snapshot; duplicate record *));
      txid
    end
    else if kind = k_abort then begin
      Hashtbl.remove t.prepared_txns (id ());
      None
    end
    else failwith (Printf.sprintf "rm: unknown record kind %d" kind)

  let encode_snapshot t =
    let e = Codec.encoder () in
    S.snapshot e t.st;
    Codec.int e (Hashtbl.length t.prepared_txns);
    Hashtbl.iter
      (fun id p ->
        Txid.encode e id;
        Codec.string e p.coordinator;
        Codec.list S.encode_redo e (logged_subset t.st p.redos))
      t.prepared_txns;
    Codec.to_string e

  let restore_image t snap =
    let d = Codec.decoder snap in
    S.restore t.st d;
    Hashtbl.reset t.prepared_txns;
    for _ = 1 to Codec.get_int d do
      let id = Txid.decode d in
      let coordinator = Codec.get_string d in
      let redos = Codec.get_list S.decode_redo d in
      Hashtbl.replace t.prepared_txns id { coordinator; redos }
    done

  let open_rm ?commit_policy disk ~name:rm_name st =
    let wal, recovered = Wal.open_log disk ~name:(rm_name ^ S.log_suffix) in
    let gc = Group_commit.create ?policy:commit_policy wal in
    let t =
      {
        rm_name;
        wal;
        gc;
        st;
        workspaces = Hashtbl.create 16;
        cached = no_ws;
        prepared_txns = Hashtbl.create 8;
      }
    in
    Option.iter (restore_image t) recovered.Wal.snapshot;
    List.iter (fun r -> ignore (replay t r)) recovered.Wal.records;
    (* Re-assert exclusions for transactions still in doubt. *)
    Hashtbl.iter (fun id p -> S.relock t.st id p.redos) t.prepared_txns;
    t

  let name t = t.rm_name
  let state t = t.st

  (* ---- workspaces ------------------------------------------------------ *)

  let ws_find t id =
    if t.cached != no_ws && Txid.equal t.cached.id id then t.cached
    else match Hashtbl.find_opt t.workspaces id with
      | Some ws -> ws
      | None -> no_ws

  let ws_remove t ws =
    if t.cached == ws then t.cached <- no_ws else Hashtbl.remove t.workspaces ws.id

  let add_redo t id redo =
    let ws = ws_find t id in
    if ws != no_ws then begin
      ws.activity <- S.clock t.st;
      ws.redos <- redo :: ws.redos
    end
    else begin
      let ws = { id; redos = [ redo ]; activity = S.clock t.st } in
      if t.cached != no_ws then Hashtbl.replace t.workspaces t.cached.id t.cached;
      t.cached <- ws
    end

  let workspace t id = (ws_find t id).redos
  let has_workspace t id = ws_find t id != no_ws

  let idle_workspaces t ~before =
    let idle ws acc = if ws.activity < before then ws.id :: acc else acc in
    let acc = Hashtbl.fold (fun _ ws acc -> idle ws acc) t.workspaces [] in
    if t.cached != no_ws then idle t.cached acc else acc

  (* Remove and return a transaction's updates, oldest first. *)
  let take_workspace t id =
    let ws = ws_find t id in
    if ws == no_ws then []
    else begin
      ws_remove t ws;
      List.rev ws.redos
    end

  (* ---- commitment ------------------------------------------------------ *)

  (* Group-commit discipline: append, apply in memory without yielding,
     then force (which may park the fiber) before acknowledging; the
     state's post-force writes follow the force (write-ahead rule). A
     batch with nothing to log costs no record and no force. *)
  let log_and_apply t kind txid redos =
    match logged_subset t.st redos with
    | [] -> apply_all t.st ~live:true redos
    | logged ->
      let pending = S.pending t.st redos in
      append_record t kind txid "" logged;
      apply_all t.st ~live:true redos;
      Group_commit.force t.gc;
      S.after_force t.st pending

  let commit_one_phase t id =
    match take_workspace t id with
    | [] -> ()
    | redos -> log_and_apply t k_one_phase (Some id) redos

  let prepare t id ~coordinator =
    (match take_workspace t id with
    | [] -> () (* read-only here: nothing to make durable *)
    | redos ->
      append_record t k_prepare (Some id) coordinator (logged_subset t.st redos);
      Hashtbl.replace t.prepared_txns id { coordinator; redos };
      Group_commit.force t.gc);
    true

  let commit_prepared t id =
    match Hashtbl.find_opt t.prepared_txns id with
    | None -> () (* already resolved (idempotent) *)
    | Some p ->
      let pending = S.pending t.st p.redos in
      append_record t k_commit (Some id) "" [];
      apply_all t.st ~live:true p.redos;
      Hashtbl.remove t.prepared_txns id;
      Group_commit.force t.gc;
      S.after_force t.st pending

  let apply_now t redos = log_and_apply t k_now None redos

  let compensate t redos =
    match S.compensate t.st redos with [] -> () | fixups -> apply_now t fixups

  let abort t id =
    compensate t (take_workspace t id);
    match Hashtbl.find_opt t.prepared_txns id with
    | None -> ()
    | Some p ->
      append_record t k_abort (Some id) "" [];
      Hashtbl.remove t.prepared_txns id;
      compensate t p.redos;
      (* [compensate]'s force covers the abort record when there were
         fixups; this one covers the bare abort (a no-op otherwise). *)
      Group_commit.force t.gc

  let is_prepared t id = Hashtbl.mem t.prepared_txns id

  let participant t ~release =
    {
      Tm.part_name = t.rm_name;
      p_prepare = (fun id ~coordinator -> prepare t id ~coordinator);
      p_commit =
        (fun id ->
          commit_prepared t id;
          release t.st id;
          true);
      p_abort =
        (fun id ->
          abort t id;
          release t.st id);
      p_one_phase =
        (fun id ->
          commit_one_phase t id;
          release t.st id;
          true);
      p_has_work = (fun id -> has_workspace t id || is_prepared t id);
      p_is_local = true;
    }

  let in_doubt t =
    Hashtbl.fold (fun id p acc -> (id, p.coordinator) :: acc) t.prepared_txns []

  let checkpoint t = Wal.checkpoint t.wal (encode_snapshot t)

  let maybe_checkpoint t ~every =
    if Wal.records_since_checkpoint t.wal >= every then checkpoint t

  let live_log_bytes t = Wal.live_log_bytes t.wal

  (* ---- warm-standby replication ---------------------------------------- *)

  let group_commit t = t.gc

  let standby_apply t payload =
    Group_commit.append t.gc payload;
    replay t payload

  let standby_force t = Group_commit.force t.gc

  let standby_install t snap =
    Hashtbl.reset t.workspaces;
    t.cached <- no_ws;
    restore_image t snap;
    (* Restart our own log from the installed image. *)
    checkpoint t
end
