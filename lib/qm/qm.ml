module Codec = Rrq_util.Codec
module Disk = Rrq_storage.Disk
module Lock = Rrq_txn.Lock
module Rm = Rrq_txn.Rm
module Tm = Rrq_txn.Tm
module Txid = Rrq_txn.Txid
module Cond = Rrq_sim.Cond

type wait = No_wait | Block | Timeout of float
type durability = Stable | Volatile | Main_memory

type attrs = {
  durability : durability;
  retry_limit : int;
  error_queue : string option;
  redirect_to : string option;
  alert_threshold : int option;
  strict_fifo : bool;
}

let default_attrs =
  {
    durability = Stable;
    retry_limit = 3;
    error_queue = None;
    redirect_to = None;
    alert_threshold = None;
    strict_fifo = false;
  }

type trigger = {
  on_queue : string;
  group_prop : string;
  complete : Element.t list -> bool;
  make : Element.t list -> (string * string * (string * string) list) list;
}

type last_op = {
  op_kind : [ `Enqueue | `Dequeue ];
  tag : string;
  op_eid : int64;
  element_copy : Element.t option;
}

type handle = { h_registrant : string; h_queue : string }

exception No_such_queue of string
exception Not_registered of string
exception Conflict of string
exception Stopped of string

(* Elements sorted by (priority desc, enq_time, eid): Map ascending order is
   dequeue order. The compare is written out monomorphically — the generic
   structural compare walks the tuple through the runtime representation on
   every Map operation, which shows up on the enqueue/dequeue hot path. *)
module Emap = Map.Make (struct
  type t = int * float * int64

  let compare (p1, t1, e1) (p2, t2, e2) =
    let c = Int.compare p1 p2 in
    if c <> 0 then c
    else
      let c = Float.compare t1 t2 in
      if c <> 0 then c else Int64.compare e1 e2
end)

(* Eid-keyed index: same reasoning, a direct int64 hash instead of the
   polymorphic one. *)
module Eidtbl = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash e = Int64.to_int e land max_int
end)

type queue = {
  qname : string;
  mutable qattrs : attrs;
  mutable elems : Element.t Emap.t;
  nonempty : Cond.t;
  mutable n_enq : int;
  mutable n_deq : int;
  mutable alerted : bool;
  mutable stopped : bool;
  (* Disk-resident queue page of a [Stable] queue, opened lazily on its
     first committed element update. [Main_memory] and [Volatile] queues
     never have one. *)
  mutable qstore : Disk.file option;
}

type reg = {
  r_registrant : string;
  r_queue : string;
  r_stable : bool;
  mutable r_last : last_op option;
}

type redo =
  | RCreate of string * attrs
  | REnq of string * Element.t
  | RDeq of int64
  | RKill of int64
  | RBump of int64
  | RMove_error of int64 * string * string
  | RRegister of string * string * bool
  | RDeregister of string * string
  | RSet_last of string * string * last_op option
  | RIncarnation
  | RDestroy of string
  | RSet_stopped of string * bool
  | RAlter of string * attrs

(* A workspace entry, the QM's [Rm] redo record: an update plus, for a
   dequeue, the error queue its abort should move the element to. *)
type ws_op = { op_redo : redo; op_errq : string option }

(* The queue manager's in-memory state: everything [Rm] does not own. The
   workspaces, the in-doubt table and the log live in [Base] below. *)
type state = {
  qm_name : string;
  disk : Disk.t;
  queues : (string, queue) Hashtbl.t;
  index : (queue * Element.t) Eidtbl.t; (* eid -> its queue, element *)
  regs : (string * string, reg) Hashtbl.t;
  locks : Lock.t;
  triggers : (string, trigger list) Hashtbl.t;
  mutable incarnations : int;
  mutable next_eid_low : int64;
  mutable abort_cb : Txid.t -> unit;
  mutable alert_cb : string -> int -> unit;
  mutable clock : unit -> float;
  mutable internal_seq : float;
  mutable auto_n : int;
  auto_origin : string; (* qm_name ^ "!auto", hoisted off the commit path *)
  (* Page image buffer and encoder for the stable queue store's
     read-modify-write. *)
  page : Bytes.t;
  page_enc : Codec.encoder;
}

(* ---- codecs -------------------------------------------------------- *)

let encode_attrs e a =
  Codec.u8 e
    (match a.durability with Stable -> 0 | Volatile -> 1 | Main_memory -> 2);
  Codec.int e a.retry_limit;
  Codec.option Codec.string e a.error_queue;
  Codec.option Codec.string e a.redirect_to;
  Codec.option Codec.int e a.alert_threshold;
  Codec.bool e a.strict_fifo

let decode_attrs d =
  let durability =
    match Codec.get_u8 d with
    | 0 -> Stable
    | 2 -> Main_memory
    | _ -> Volatile
  in
  let retry_limit = Codec.get_int d in
  let error_queue = Codec.get_option Codec.get_string d in
  let redirect_to = Codec.get_option Codec.get_string d in
  let alert_threshold = Codec.get_option Codec.get_int d in
  let strict_fifo = Codec.get_bool d in
  { durability; retry_limit; error_queue; redirect_to; alert_threshold; strict_fifo }

let encode_last_op e l =
  Codec.u8 e (match l.op_kind with `Enqueue -> 0 | `Dequeue -> 1);
  Codec.string e l.tag;
  Codec.i64 e l.op_eid;
  Codec.option Element.encode e l.element_copy

let decode_last_op d =
  let op_kind = match Codec.get_u8 d with 0 -> `Enqueue | _ -> `Dequeue in
  let tag = Codec.get_string d in
  let op_eid = Codec.get_i64 d in
  let element_copy = Codec.get_option Element.decode d in
  { op_kind; tag; op_eid; element_copy }

let encode_redo e = function
  | RCreate (q, a) ->
    Codec.u8 e 1;
    Codec.string e q;
    encode_attrs e a
  | REnq (q, el) ->
    Codec.u8 e 2;
    Codec.string e q;
    Element.encode e el
  | RDeq eid ->
    Codec.u8 e 3;
    Codec.i64 e eid
  | RKill eid ->
    Codec.u8 e 4;
    Codec.i64 e eid
  | RBump eid ->
    Codec.u8 e 5;
    Codec.i64 e eid
  | RMove_error (eid, q, code) ->
    Codec.u8 e 6;
    Codec.i64 e eid;
    Codec.string e q;
    Codec.string e code
  | RRegister (r, q, stable) ->
    Codec.u8 e 7;
    Codec.string e r;
    Codec.string e q;
    Codec.bool e stable
  | RDeregister (r, q) ->
    Codec.u8 e 8;
    Codec.string e r;
    Codec.string e q
  | RSet_last (r, q, l) ->
    Codec.u8 e 9;
    Codec.string e r;
    Codec.string e q;
    Codec.option encode_last_op e l
  | RIncarnation -> Codec.u8 e 10
  | RDestroy q ->
    Codec.u8 e 11;
    Codec.string e q
  | RSet_stopped (q, flag) ->
    Codec.u8 e 12;
    Codec.string e q;
    Codec.bool e flag
  | RAlter (q, a) ->
    Codec.u8 e 13;
    Codec.string e q;
    encode_attrs e a

let decode_redo d =
  match Codec.get_u8 d with
  | 1 ->
    let q = Codec.get_string d in
    let a = decode_attrs d in
    RCreate (q, a)
  | 2 ->
    let q = Codec.get_string d in
    let el = Element.decode d in
    REnq (q, el)
  | 3 -> RDeq (Codec.get_i64 d)
  | 4 -> RKill (Codec.get_i64 d)
  | 5 -> RBump (Codec.get_i64 d)
  | 6 ->
    let eid = Codec.get_i64 d in
    let q = Codec.get_string d in
    let code = Codec.get_string d in
    RMove_error (eid, q, code)
  | 7 ->
    let r = Codec.get_string d in
    let q = Codec.get_string d in
    let stable = Codec.get_bool d in
    RRegister (r, q, stable)
  | 8 ->
    let r = Codec.get_string d in
    let q = Codec.get_string d in
    RDeregister (r, q)
  | 9 ->
    let r = Codec.get_string d in
    let q = Codec.get_string d in
    let l = Codec.get_option decode_last_op d in
    RSet_last (r, q, l)
  | 10 -> RIncarnation
  | 11 -> RDestroy (Codec.get_string d)
  | 12 ->
    let q = Codec.get_string d in
    let flag = Codec.get_bool d in
    RSet_stopped (q, flag)
  | 13 ->
    let q = Codec.get_string d in
    let a = decode_attrs d in
    RAlter (q, a)
  | n -> raise (Codec.Decode_error (Printf.sprintf "qm: bad redo tag %d" n))

let encode_ws_op e op =
  Codec.option Codec.string e op.op_errq;
  encode_redo e op.op_redo

let decode_ws_op d =
  let op_errq = Codec.get_option Codec.get_string d in
  let op_redo = decode_redo d in
  { op_redo; op_errq }

(* ---- state helpers -------------------------------------------------- *)

let get_queue st qn =
  match Hashtbl.find_opt st.queues qn with
  | Some q -> q
  | None -> raise (No_such_queue qn)

let make_queue qname qattrs =
  {
    qname;
    qattrs;
    elems = Emap.empty;
    nonempty = Cond.create ();
    n_enq = 0;
    n_deq = 0;
    alerted = false;
    stopped = false;
    qstore = None;
  }

let default_error_queue q =
  match q.qattrs.error_queue with Some n -> n | None -> q.qname ^ ".err"

let ensure_queue st qn attrs =
  if not (Hashtbl.mem st.queues qn) then
    Hashtbl.replace st.queues qn (make_queue qn attrs)

let queue_depth q = Emap.cardinal q.elems

let check_alert st ~live q =
  if live then
    match q.qattrs.alert_threshold with
    | Some thr ->
      let d = queue_depth q in
      if d >= thr && not q.alerted then begin
        q.alerted <- true;
        st.alert_cb q.qname d
      end
      else if d < thr then q.alerted <- false
    | None -> ()

let remove_element st eid =
  match Eidtbl.find_opt st.index eid with
  | None -> None
  | Some (q, el) ->
    q.elems <- Emap.remove (Element.key el) q.elems;
    Eidtbl.remove st.index eid;
    (match q.qattrs.alert_threshold with
    | Some thr when queue_depth q < thr -> q.alerted <- false
    | _ -> ());
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.set_gauge
        (Printf.sprintf "qm.depth:%s/%s" st.qm_name q.qname)
        (float_of_int (queue_depth q));
    Some (q, el)

(* Insert, following redirection, then fire any completed trigger group. *)
let rec insert_element st ~live qn el =
  let q = get_queue st qn in
  match q.qattrs.redirect_to with
  | Some target when target <> qn && Hashtbl.mem st.queues target ->
    insert_element st ~live target el
  | _ ->
    q.elems <- Emap.add (Element.key el) el q.elems;
    Eidtbl.replace st.index el.Element.eid (q, el);
    if live then q.n_enq <- q.n_enq + 1;
    if Rrq_obs.enabled () then
      Rrq_obs.Metrics.set_gauge
        (Printf.sprintf "qm.depth:%s/%s" st.qm_name q.qname)
        (float_of_int (queue_depth q));
    Cond.signal q.nonempty;
    check_alert st ~live q;
    check_triggers st ~live q el

and check_triggers st ~live q el =
  match Hashtbl.find_opt st.triggers q.qname with
  | None -> ()
  | Some trigs ->
    List.iter
      (fun trig ->
        match Element.prop el trig.group_prop with
        | None -> ()
        | Some gv ->
          let members =
            Emap.fold
              (fun _ m acc ->
                if m.Element.status = Element.Ready
                   && Element.prop m trig.group_prop = Some gv
                then m :: acc
                else acc)
              q.elems []
            |> List.rev
          in
          if members <> [] && trig.complete members then begin
            let outputs = trig.make members in
            List.iter
              (fun m -> ignore (remove_element st m.Element.eid))
              members;
            List.iter
              (fun (target, payload, props) ->
                let eid = fresh_eid st in
                let out =
                  Element.make ~eid ~payload ~props ~priority:0
                    ~enq_time:(now st)
                in
                insert_element st ~live target out)
              outputs
          end)
      trigs

and fresh_eid st =
  st.next_eid_low <- Int64.add st.next_eid_low 1L;
  Int64.add (Int64.mul (Int64.of_int st.incarnations) 0x100000000L) st.next_eid_low

and now st =
  st.internal_seq <- st.internal_seq +. 1.0;
  st.clock () +. (st.internal_seq *. 1e-9)

(* Trigger outputs allocate eids at apply time. During replay this re-runs
   with the same incarnation counter state as the original run *only if*
   the original run allocated them in the same order — which holds because
   apply order equals log order. Post-crash incarnation bumps keep fresh
   eids unique anyway. *)

let apply st ~live op =
  (* Operation counters live here (not in the workspace path) so they count
     committed effects only, and [live] keeps replay (recovery, a standby)
     from double-counting a run's history. *)
  let obs = live && Rrq_obs.enabled () in
  match op with
  | RCreate (qn, a) -> ensure_queue st qn a
  | REnq (qn, el) ->
    if obs then Rrq_obs.Metrics.inc ("qm.enqueues:" ^ st.qm_name);
    insert_element st ~live qn el
  | RDeq eid -> begin
    match remove_element st eid with
    | Some (q, el) ->
      if live then q.n_deq <- q.n_deq + 1;
      if obs then begin
        Rrq_obs.Metrics.inc ("qm.dequeues:" ^ st.qm_name);
        Rrq_obs.Metrics.observe
          (Printf.sprintf "qm.wait:%s/%s" st.qm_name q.qname)
          (st.clock () -. el.Element.enq_time)
      end
    | None -> ()
  end
  | RKill eid ->
    if obs then Rrq_obs.Metrics.inc ("qm.kills:" ^ st.qm_name);
    ignore (remove_element st eid)
  | RBump eid -> begin
    match Eidtbl.find_opt st.index eid with
    | Some (_, el) ->
      el.Element.delivery_count <- el.Element.delivery_count + 1;
      if obs then begin
        Rrq_obs.Metrics.inc ("qm.bumps:" ^ st.qm_name);
        Rrq_obs.Metrics.observe
          ("qm.abort_count:" ^ st.qm_name)
          (float_of_int el.Element.delivery_count)
      end
    | None -> ()
  end
  | RMove_error (eid, errq, code) -> begin
    match remove_element st eid with
    | None -> ()
    | Some (_, el) ->
      el.Element.abort_code <- Some code;
      el.Element.status <- Element.Ready;
      if obs then begin
        Rrq_obs.Metrics.inc ("qm.spills:" ^ st.qm_name);
        Rrq_obs.Trace.emit
          (Rrq_obs.Event.Error_spill
             { qm = st.qm_name; error_queue = errq; eid; code })
      end;
      ensure_queue st errq
        { default_attrs with retry_limit = max_int; error_queue = Some errq };
      insert_element st ~live errq el
  end
  | RRegister (r, qn, stable) ->
    if not (Hashtbl.mem st.regs (r, qn)) then
      Hashtbl.replace st.regs (r, qn)
        { r_registrant = r; r_queue = qn; r_stable = stable; r_last = None }
  | RDeregister (r, qn) -> Hashtbl.remove st.regs (r, qn)
  | RSet_last (r, qn, l) -> begin
    match Hashtbl.find_opt st.regs (r, qn) with
    | Some reg -> reg.r_last <- l
    | None -> ()
  end
  | RIncarnation ->
    st.incarnations <- st.incarnations + 1;
    st.next_eid_low <- 0L
  | RDestroy qn -> begin
    match Hashtbl.find_opt st.queues qn with
    | None -> ()
    | Some q ->
      Emap.iter (fun _ el -> Eidtbl.remove st.index el.Element.eid) q.elems;
      Hashtbl.remove st.queues qn;
      let doomed =
        Hashtbl.fold
          (fun key reg acc -> if reg.r_queue = qn then key :: acc else acc)
          st.regs []
      in
      List.iter (Hashtbl.remove st.regs) doomed
  end
  | RSet_stopped (qn, flag) -> begin
    match Hashtbl.find_opt st.queues qn with
    | Some q ->
      q.stopped <- flag;
      if not flag then Cond.broadcast q.nonempty
    | None -> ()
  end
  | RAlter (qn, a) -> begin
    match Hashtbl.find_opt st.queues qn with
    | Some q ->
      q.qattrs <- a;
      check_alert st ~live q
    | None -> ()
  end

(* The queue an element update touches; [None] for an update that names
   no queue, or one that no longer exists. *)
let target_queue st = function
  | REnq (qn, _) -> Hashtbl.find_opt st.queues qn
  | RDeq eid | RKill eid | RBump eid | RMove_error (eid, _, _) -> (
    match Eidtbl.find_opt st.index eid with Some (q, _) -> Some q | None -> None)
  | RCreate _ | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation
  | RDestroy _ | RSet_stopped _ | RAlter _ ->
    None

(* An op is logged unless it touches a volatile queue; DDL and registration
   records are always logged. Volatile-queue updates are applied but never
   logged — they cost no forced writes and evaporate on crash. Main-memory
   queues are logged like stable ones (the redo record IS their
   durability); they only skip the page store. *)
let logged st op =
  match target_queue st op.op_redo with
  | Some q -> q.qattrs.durability <> Volatile
  | None -> true

(* Disk-resident queue modeling (paper secs. 2 and 10): every committed
   element update on a [Stable] queue pays a read-modify-write of the
   queue's 4 KiB page — read the page image back, splice the update in,
   write the full page. This is the stable-storage traffic a conventional
   disk-resident queue does on top of its redo record, and exactly what
   [Main_memory] queues skip: their only stable write is the redo record
   itself, and recovery rebuilds their state from the redo scan. The page
   store is overwrite-in-place (bounded, one page per queue), never synced
   as a log force, and ignored by recovery — the WAL stays authoritative. *)
let page_size = 4096

(* The page writes a commit owes, in op order: its element updates on
   [Stable] queues, resolved before any effect is applied (a dequeue's
   index entry is gone after apply). *)
let rec page_updates st = function
  | [] -> []
  | op :: rest -> (
    match target_queue st op.op_redo with
    | Some { qattrs = { durability = Stable; _ }; qname; _ } ->
      (qname, op.op_redo) :: page_updates st rest
    | Some _ | None -> page_updates st rest)

let qstore_file st qn q =
  match q.qstore with
  | Some f -> f
  | None ->
    let f = Disk.open_file st.disk (st.qm_name ^ ".qstore." ^ qn) in
    q.qstore <- Some f;
    f

(* Runs after the commit's log force (write-ahead rule). *)
let store_write st pages =
  List.iter
    (fun (qn, redo) ->
      match Hashtbl.find_opt st.queues qn with
      | None -> () (* queue destroyed in the same transaction *)
      | Some q ->
        let f = qstore_file st qn q in
        let e = st.page_enc in
        Codec.reset e;
        (match redo with
        | REnq (_, el) ->
          Codec.u8 e 1;
          Element.encode e el
        | RDeq eid ->
          Codec.u8 e 2;
          Codec.i64 e eid
        | RKill eid ->
          Codec.u8 e 3;
          Codec.i64 e eid
        | RBump eid ->
          Codec.u8 e 4;
          Codec.i64 e eid
        | RMove_error (eid, _, _) ->
          Codec.u8 e 5;
          Codec.i64 e eid
        | RCreate _ | RRegister _ | RDeregister _ | RSet_last _
        | RIncarnation | RDestroy _ | RSet_stopped _ | RAlter _ -> ());
        (* read back ... *)
        Disk.read_page f st.page;
        (* ... modify in place ... *)
        let len = min (Codec.length e) page_size in
        Bytes.blit (Codec.bytes e) 0 st.page 0 len;
        (* ... write the whole page *)
        Disk.write_page f st.page)
    pages

(* Returning a dequeued element to its queue after an abort: bump its retry
   count durably; if the limit is hit, move it to the error queue instead
   (§4.2). *)
let restore_element st op =
  match op.op_redo with
  | RDeq eid -> begin
    match Eidtbl.find_opt st.index eid with
    | None -> []
    | Some (q, el) ->
      el.Element.status <- Element.Ready;
      Cond.signal q.nonempty;
      let bump = { op_redo = RBump eid; op_errq = None } in
      if el.Element.delivery_count + 1 >= q.qattrs.retry_limit then begin
        let errq =
          match op.op_errq with Some e -> e | None -> default_error_queue q
        in
        let code =
          Printf.sprintf "aborted %d times" (el.Element.delivery_count + 1)
        in
        [ bump; { op_redo = RMove_error (eid, errq, code); op_errq = None } ]
      end
      else [ bump ]
  end
  | RCreate _ | REnq _ | RKill _ | RBump _ | RMove_error _ | RRegister _
  | RDeregister _ | RSet_last _ | RIncarnation | RDestroy _ | RSet_stopped _
  | RAlter _ ->
    []

(* ---- snapshot / recovery ------------------------------------------- *)

let encode_state e st =
  Codec.int e st.incarnations;
  (* recoverable queues only: volatile contents die with the process
     anyway. Main-memory queues must be included — the checkpoint deletes
     the segments holding their redo records, so the snapshot is the
     materialized prefix of exactly the log they recover from. *)
  let stable_queues =
    Hashtbl.fold
      (fun _ q acc -> if q.qattrs.durability <> Volatile then q :: acc else acc)
      st.queues []
    |> List.sort (fun a b -> compare a.qname b.qname)
  in
  Codec.int e (List.length stable_queues);
  List.iter
    (fun q ->
      Codec.string e q.qname;
      encode_attrs e q.qattrs;
      Codec.int e (Emap.cardinal q.elems);
      Emap.iter (fun _ el -> Element.encode e el) q.elems)
    stable_queues;
  let stopped_queues =
    Hashtbl.fold (fun qn q acc -> if q.stopped then qn :: acc else acc) st.queues []
  in
  Codec.list Codec.string e (List.sort compare stopped_queues);
  Codec.int e (Hashtbl.length st.regs);
  Hashtbl.iter
    (fun (r, qn) reg ->
      Codec.string e r;
      Codec.string e qn;
      Codec.bool e reg.r_stable;
      Codec.option encode_last_op e reg.r_last)
    st.regs

(* In place: the hosting site, its servers and the HA layer keep their
   reference to the state across a standby install. *)
let restore_state st d =
  Hashtbl.reset st.queues;
  Eidtbl.reset st.index;
  Hashtbl.reset st.regs;
  st.incarnations <- Codec.get_int d;
  let nq = Codec.get_int d in
  for _ = 1 to nq do
    let qn = Codec.get_string d in
    let a = decode_attrs d in
    let q = make_queue qn a in
    Hashtbl.replace st.queues qn q;
    let ne = Codec.get_int d in
    for _ = 1 to ne do
      let el = Element.decode d in
      q.elems <- Emap.add (Element.key el) el q.elems;
      Eidtbl.replace st.index el.Element.eid (q, el)
    done
  done;
  let stopped_queues = Codec.get_list Codec.get_string d in
  List.iter
    (fun qn ->
      match Hashtbl.find_opt st.queues qn with
      | Some q -> q.stopped <- true
      | None -> ())
    stopped_queues;
  let nr = Codec.get_int d in
  for _ = 1 to nr do
    let r = Codec.get_string d in
    let qn = Codec.get_string d in
    let stable = Codec.get_bool d in
    let last = Codec.get_option decode_last_op d in
    Hashtbl.replace st.regs (r, qn)
      { r_registrant = r; r_queue = qn; r_stable = stable; r_last = last }
  done

(* Re-assert the volatile exclusions of an in-doubt transaction: dequeued
   elements stay locked, strict-FIFO queue locks are re-taken. *)
let relock st id ops =
  List.iter
    (fun op ->
      match op.op_redo with
      | RDeq eid -> begin
        match Eidtbl.find_opt st.index eid with
        | Some (q, el) ->
          el.Element.status <- Element.Deq_pending id;
          if q.qattrs.strict_fifo then
            Lock.acquire st.locks id ~key:("q:" ^ q.qname) Lock.X
        | None -> ()
      end
      | RCreate _ | REnq _ | RKill _ | RBump _ | RMove_error _
      | RRegister _ | RDeregister _ | RSet_last _ | RIncarnation
      | RDestroy _ | RSet_stopped _ | RAlter _ -> ())
    ops

(* The queue manager as an [Rm] client: [Rm] frames, forces, replays,
   snapshots and standby-applies its log; the QM keeps the queue state,
   the page store and the §4.2 abort fixups. *)
module State = struct
  type nonrec state = state
  type pending = (string * redo) list (* page writes: queue, update *)
  type redo = ws_op

  let log_suffix = ".qmlog"
  let encode_redo = encode_ws_op
  let decode_redo = decode_ws_op
  let logged = logged
  let apply st ~live op = apply st ~live op.op_redo
  let pending = page_updates
  let after_force = store_write
  let compensate st ops = List.concat_map (restore_element st) ops
  let clock st = st.clock ()
  let snapshot = encode_state
  let restore = restore_state
  let relock = relock
end

module Base = Rm.Make (State)

type t = Base.t

let op redo = { op_redo = redo; op_errq = None }
let log_now t redo = Base.apply_now t [ op redo ]

let open_qm ?commit_policy ?(triggers = []) disk ~name:qm_name =
  let st =
    {
      qm_name;
      disk;
      queues = Hashtbl.create 16;
      index = Eidtbl.create 256;
      regs = Hashtbl.create 32;
      locks = Lock.create ~name:"qm" ();
      triggers = Hashtbl.create 4;
      incarnations = 0;
      next_eid_low = 0L;
      abort_cb = (fun _ -> ());
      alert_cb = (fun _ _ -> ());
      clock = (fun () -> 0.0);
      internal_seq = 0.0;
      auto_n = 0;
      auto_origin = qm_name ^ "!auto";
      page = Bytes.make page_size '\000';
      page_enc = Codec.encoder ();
    }
  in
  List.iter
    (fun trig ->
      let cur =
        match Hashtbl.find_opt st.triggers trig.on_queue with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace st.triggers trig.on_queue (cur @ [ trig ]))
    triggers;
  let t = Base.open_rm ?commit_policy disk ~name:qm_name st in
  (* Bump the incarnation durably so eids and auto-txids never repeat. *)
  log_now t RIncarnation;
  t

let name = Base.name

(* ---- DDL ------------------------------------------------------------ *)

let create_queue t ?(attrs = default_attrs) qn =
  if not (Hashtbl.mem (Base.state t).queues qn) then
    log_now t (RCreate (qn, attrs))

let alter_queue t qn attrs =
  let q = get_queue (Base.state t) qn in
  if q.qattrs.durability <> attrs.durability then
    invalid_arg "Qm.alter_queue: durability class is immutable";
  log_now t (RAlter (qn, attrs))

let destroy_queue t qn =
  ignore (get_queue (Base.state t) qn);
  log_now t (RDestroy qn)

let stop_queue t qn =
  ignore (get_queue (Base.state t) qn);
  log_now t (RSet_stopped (qn, true))

let start_queue t qn =
  ignore (get_queue (Base.state t) qn);
  log_now t (RSet_stopped (qn, false))

let queue_stopped t qn = (get_queue (Base.state t) qn).stopped

let queue_exists t qn = Hashtbl.mem (Base.state t).queues qn

let queue_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) (Base.state t).queues []
  |> List.sort compare

let depth t qn = queue_depth (get_queue (Base.state t) qn)

(* ---- registration ---------------------------------------------------- *)

let register t ~queue ~registrant ~stable =
  let st = Base.state t in
  if not (Hashtbl.mem st.queues queue) then raise (No_such_queue queue);
  let h = { h_registrant = registrant; h_queue = queue } in
  match Hashtbl.find_opt st.regs (registrant, queue) with
  | Some reg -> (h, if reg.r_stable then reg.r_last else None)
  | None ->
    log_now t (RRegister (registrant, queue, stable));
    (h, None)

let reg_of st h =
  match Hashtbl.find_opt st.regs (h.h_registrant, h.h_queue) with
  | Some reg -> reg
  | None ->
    raise (Not_registered (Printf.sprintf "%s@%s" h.h_registrant h.h_queue))

(* Read-only: no registration is created and nothing is logged, so a
   peer repository can be probed for duplicate-suppression evidence
   (shard registration pull) without perturbing its durable state. *)
let lookup_registration t ~queue ~registrant =
  match Hashtbl.find_opt (Base.state t).regs (registrant, queue) with
  | Some reg when reg.r_stable -> reg.r_last
  | _ -> None

let deregister t h =
  ignore (reg_of (Base.state t) h);
  log_now t (RDeregister (h.h_registrant, h.h_queue))

let handle_queue h = h.h_queue
let handle_registrant h = h.h_registrant

(* ---- data manipulation ----------------------------------------------- *)

let enqueue t id h ?tag ?(props = []) ?(priority = 0) payload =
  let st = Base.state t in
  let reg = reg_of st h in
  if (get_queue st h.h_queue).stopped then raise (Stopped h.h_queue);
  let eid = fresh_eid st in
  let el = Element.make ~eid ~payload ~props ~priority ~enq_time:(now st) in
  Base.add_redo t id (op (REnq (h.h_queue, el)));
  (match tag with
  | Some tag when reg.r_stable ->
    Base.add_redo t id
      (op
         (RSet_last
            ( h.h_registrant,
              h.h_queue,
              Some { op_kind = `Enqueue; tag; op_eid = eid; element_copy = Some el }
            )))
  | _ -> ());
  if Rrq_obs.enabled () then
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Enqueue
         { qm = st.qm_name; queue = h.h_queue; eid; txid = Txid.to_string id });
  eid

let select_ready ?rank q filter =
  match rank with
  | None ->
    (* queue order: first ready match wins *)
    let found = ref None in
    (try
       Emap.iter
         (fun _ el ->
           if el.Element.status = Element.Ready && Filter.matches filter el
           then begin
             found := Some el;
             raise Exit
           end)
         q.elems
     with Exit -> ());
    !found
  | Some rank ->
    (* content-based scheduling: highest rank among ready matches (paper
       11: "highest dollar amount first") *)
    Emap.fold
      (fun _ el best ->
        if el.Element.status = Element.Ready && Filter.matches filter el then begin
          match best with
          | Some (b, _) when b >= rank el -> best
          | _ -> Some (rank el, el)
        end
        else best)
      q.elems None
    |> Option.map snd

(* [reg] is the caller's already-resolved registration for [h] — dequeue
   validates it up front, so resolving it again here would be a second
   hash of the same key on every dequeue. *)
let take t id h ~reg ?tag ?errq el =
  el.Element.status <- Element.Deq_pending id;
  Base.add_redo t id { op_redo = RDeq el.Element.eid; op_errq = errq };
  (match tag with
  | Some tag when reg.r_stable ->
    Base.add_redo t id
      (op
         (RSet_last
            ( h.h_registrant,
              h.h_queue,
              Some
                {
                  op_kind = `Dequeue;
                  tag;
                  op_eid = el.Element.eid;
                  element_copy = Some el;
                } )))
  | _ -> ());
  if Rrq_obs.enabled () then
    Rrq_obs.Trace.emit
      (Rrq_obs.Event.Dequeue
         {
           qm = (Base.state t).qm_name;
           queue = h.h_queue;
           eid = el.Element.eid;
           txid = Txid.to_string id;
         });
  el

let with_lock_conflicts f =
  try f () with
  | Lock.Deadlock msg -> raise (Conflict ("deadlock: " ^ msg))
  | Lock.Cancelled -> raise (Conflict "cancelled")

let dequeue t id h ?tag ?(filter = Filter.True) ?rank ?error_queue wait =
  let st = Base.state t in
  let reg = reg_of st h in
  let q = get_queue st h.h_queue in
  if q.stopped then raise (Stopped h.h_queue);
  if q.qattrs.strict_fifo then
    with_lock_conflicts (fun () ->
        Lock.acquire st.locks id ~key:("q:" ^ q.qname) Lock.X);
  let deadline =
    match wait with Timeout d -> Some (st.clock () +. d) | No_wait | Block -> None
  in
  let rec attempt () =
    match select_ready ?rank q filter with
    | Some el -> Some (take t id h ~reg ?tag ?errq:error_queue el)
    | None -> begin
      match wait with
      | No_wait -> None
      | Block ->
        Cond.wait q.nonempty;
        attempt ()
      | Timeout _ -> begin
        match deadline with
        | Some dl when st.clock () < dl ->
          if Cond.wait_timeout q.nonempty (dl -. st.clock ()) then attempt ()
          else None
        | _ -> None
      end
    end
  in
  attempt ()

let dequeue_set t id hs ?tag ?(filter = Filter.True) wait =
  let st = Base.state t in
  let queues =
    List.map (fun h -> (h, reg_of st h, get_queue st h.h_queue)) hs
  in
  let deadline =
    match wait with Timeout d -> Some (st.clock () +. d) | No_wait | Block -> None
  in
  let rec attempt () =
    let best =
      List.fold_left
        (fun acc (h, reg, q) ->
          match select_ready q filter with
          | None -> acc
          | Some el -> begin
            match acc with
            | Some (_, _, best_el)
              when Element.key best_el <= Element.key el -> acc
            | _ -> Some (h, reg, el)
          end)
        None queues
    in
    match best with
    | Some (h, reg, el) -> Some (h, take t id h ~reg ?tag el)
    | None -> begin
      let conds = List.map (fun (_, _, q) -> q.nonempty) queues in
      match wait with
      | No_wait -> None
      | Block ->
        ignore (Cond.wait_any conds);
        attempt ()
      | Timeout _ -> begin
        match deadline with
        | Some dl when st.clock () < dl ->
          if Cond.wait_any ~timeout:(dl -. st.clock ()) conds then attempt ()
          else attempt () (* deadline re-checked at loop head *)
        | _ -> None
      end
    end
  in
  attempt ()

let read t eid =
  let st = Base.state t in
  match Eidtbl.find_opt st.index eid with
  | Some (q, el) ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Read { qm = st.qm_name; queue = q.qname; found = true });
    Some el
  | None ->
    if Rrq_obs.enabled () then
      Rrq_obs.Trace.emit
        (Rrq_obs.Event.Read { qm = st.qm_name; queue = ""; found = false });
    None

let read_last t h =
  match (reg_of (Base.state t) h).r_last with
  | Some { element_copy; _ } -> element_copy
  | None -> None

(* Refresh per-queue depth and head-of-line age gauges; called periodically
   (the site janitor) and before metric dumps, since age only decays as the
   clock advances, not on queue activity. *)
let observe_queues t =
  let st = Base.state t in
  if Rrq_obs.enabled () then
    Hashtbl.iter
      (fun qn q ->
        Rrq_obs.Metrics.set_gauge
          (Printf.sprintf "qm.depth:%s/%s" st.qm_name qn)
          (float_of_int (queue_depth q));
        let age =
          match Emap.min_binding_opt q.elems with
          | Some (_, el) -> st.clock () -. el.Element.enq_time
          | None -> 0.0
        in
        Rrq_obs.Metrics.set_gauge (Printf.sprintf "qm.age:%s/%s" st.qm_name qn) age)
      st.queues

(* ---- commitment ------------------------------------------------------ *)

let release_locks st id =
  Lock.cancel_waits st.locks id;
  Lock.release_all st.locks id

let commit_one_phase t id =
  Base.commit_one_phase t id;
  release_locks (Base.state t) id

let abort t id =
  Base.abort t id;
  release_locks (Base.state t) id

let participant t = Base.participant t ~release:release_locks

let auto_commit t f =
  let st = Base.state t in
  st.auto_n <- st.auto_n + 1;
  let id = Txid.make ~origin:st.auto_origin ~inc:st.incarnations ~n:st.auto_n in
  let t0 = if Rrq_obs.enabled () then st.clock () else 0.0 in
  match f id with
  | v ->
    (* Only count transactions that buffered work: polling an empty queue
       auto-commits too, and counting those would skew commit rates. *)
    let worked = Base.has_workspace t id in
    commit_one_phase t id;
    if worked && Rrq_obs.enabled () then begin
      Rrq_obs.Metrics.inc ("qm.auto_commits:" ^ st.qm_name);
      Rrq_obs.Metrics.observe
        ("qm.commit.latency:" ^ st.qm_name)
        (st.clock () -. t0)
    end;
    v
  | exception e ->
    abort t id;
    raise e

let abort_stale t ~older_than =
  let st = Base.state t in
  let stale = Base.idle_workspaces t ~before:(st.clock () -. older_than) in
  List.iter
    (fun id ->
      abort t id;
      st.abort_cb id)
    stale;
  List.length stale

let kill_element t eid =
  let st = Base.state t in
  match Eidtbl.find_opt st.index eid with
  | None -> false
  | Some (_, el) ->
    (match el.Element.status with
    | Element.Deq_pending id -> st.abort_cb id
    | Element.Ready -> ());
    (* The abort may have moved it to an error queue; chase the eid. *)
    if Eidtbl.mem st.index eid then begin
      log_now t (RKill eid);
      true
    end
    else false

let kill_where t filter =
  let victims =
    Eidtbl.fold
      (fun eid (_, el) acc -> if Filter.matches filter el then eid :: acc else acc)
      (Base.state t).index []
  in
  List.fold_left
    (fun n eid -> if kill_element t eid then n + 1 else n)
    0 victims

(* ---- callbacks / maintenance ---------------------------------------- *)

include (Base : Rm.SHARED with type t := t)

let set_abort_callback t f = (Base.state t).abort_cb <- f
let set_alert_callback t f = (Base.state t).alert_cb <- f
let set_clock t f = (Base.state t).clock <- f

(* Durably open a fresh incarnation without reopening the repository — the
   promotion path: a new primary must never mint eids or auto-txids that
   collide with ones the old primary handed out. *)
let bump_incarnation t = log_now t RIncarnation

let counts t qn =
  let q = get_queue (Base.state t) qn in
  (q.n_enq, q.n_deq)

let elements t qn =
  let q = get_queue (Base.state t) qn in
  Emap.fold (fun _ el acc -> el :: acc) q.elems [] |> List.rev
