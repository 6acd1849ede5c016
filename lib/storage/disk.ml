module Chunked = Rrq_util.Chunked

(* A file's bytes live in one chunk store: the first [durable] bytes
   survive a crash, the rest are appended but not yet synced. *)
type file_state = {
  fname : string;
  some_fname : string option; (* [Some fname], built once: appends note it *)
  data : Chunked.t;
  mutable durable : int;
  owner : t;
}

and t = {
  dname : string;
  torn_writes : bool;
  rng : Rrq_util.Rng.t option;
  sync_latency : float; (* virtual seconds one flush occupies the device *)
  mutable busy_until : float; (* device free again at this virtual time *)
  files : (string, file_state) Hashtbl.t;
  mutable last_appended : string option;
  mutable synced_bytes : int;
  mutable sync_count : int;
  mutable kill_in : int option; (* crash-point injection countdown *)
  mutable dead : bool;
}

type file = file_state

let create ?(torn_writes = false) ?rng ?(sync_latency = 0.0) dname =
  {
    dname;
    torn_writes;
    rng;
    sync_latency;
    busy_until = 0.0;
    files = Hashtbl.create 16;
    last_appended = None;
    synced_bytes = 0;
    sync_count = 0;
    kill_in = None;
    dead = false;
  }

let name t = t.dname
let sync_latency t = t.sync_latency

(* The device serves one flush at a time: a sync requested at [now] starts
   when the previous one finishes and completes [sync_latency] later. The
   caller (running in a fiber) sleeps for the returned duration before
   issuing the actual [sync] — this is how the simulator charges realistic
   cost per log force without the storage layer depending on the sim. *)
let reserve_sync t ~now =
  let start = Float.max now t.busy_until in
  t.busy_until <- start +. t.sync_latency;
  t.busy_until -. now

let open_file t fname =
  match Hashtbl.find_opt t.files fname with
  | Some f -> f
  | None ->
    let f =
      {
        fname;
        some_fname = Some fname;
        data = Chunked.create ();
        durable = 0;
        owner = t;
      }
    in
    Hashtbl.add t.files fname f;
    f

(* Shared by the public crash and the injected crash-point trigger. *)
let crash_now t =
  let torn_file =
    match (t.torn_writes, t.rng, t.last_appended) with
    | true, Some rng, Some fname when Rrq_util.Rng.bool rng -> Some fname
    | _ -> None
  in
  Hashtbl.iter
    (fun fname f ->
      let pending = Chunked.length f.data - f.durable in
      (match (torn_file, t.rng) with
      | Some tf, Some rng when tf = fname && pending > 0 ->
        (* Keep a random prefix of the unsynced tail: a torn block. *)
        f.durable <- f.durable + Rrq_util.Rng.int rng (pending + 1)
      | _ -> ());
      Chunked.truncate f.data f.durable)
    t.files;
  t.last_appended <- None

(* The crash-point countdown: returns false when the pending durability
   action must be suppressed (the disk just died, or died earlier). *)
let allow_durability t =
  if t.dead then false
  else begin
    match t.kill_in with
    | Some n when n <= 1 ->
      t.kill_in <- None;
      t.dead <- true;
      crash_now t;
      false
    | Some n ->
      t.kill_in <- Some (n - 1);
      true
    | None -> true
  end

let append f bytes =
  if not f.owner.dead then begin
    Chunked.add_string f.data bytes;
    f.owner.last_appended <- f.some_fname
  end

let append_i64 f v =
  if not f.owner.dead then begin
    Chunked.add_int64_le f.data v;
    f.owner.last_appended <- f.some_fname
  end

let append_sub f buf ~pos ~len =
  if not f.owner.dead then begin
    Chunked.add_subbytes f.data buf ~pos ~len;
    f.owner.last_appended <- f.some_fname
  end

(* Page-granular in-place file: its contents are exactly one page image,
   overwritten on every write. Models disk-resident structures updated in
   place (queue pages) as opposed to the append-only log files — bounded
   size, paid as a full page of copying per update. Neither call counts as
   a log force: crash countdowns ([kill_after_syncs]) tick on [sync] only,
   and a write on a dead disk is lost exactly like an unsynced append. *)
let read_page f page =
  let n = min f.durable (Bytes.length page) in
  Chunked.blit f.data ~src_pos:0 page ~dst_pos:0 ~len:n

(* Truncating to 0 keeps the first chunk, so a page of up to one chunk is
   rewritten in place without allocating. *)
let write_page f page =
  let t = f.owner in
  if not t.dead then begin
    Chunked.truncate f.data 0;
    Chunked.add_subbytes f.data page ~pos:0 ~len:(Bytes.length page);
    f.durable <- Bytes.length page;
    t.synced_bytes <- t.synced_bytes + Bytes.length page
  end

let sync f =
  let t = f.owner in
  if allow_durability t then begin
    let n = Chunked.length f.data - f.durable in
    f.durable <- Chunked.length f.data;
    t.synced_bytes <- t.synced_bytes + n;
    t.sync_count <- t.sync_count + 1
  end

let sync_all t = Hashtbl.iter (fun _ f -> sync f) t.files

let read f = Chunked.contents f.data
let read_durable f = Chunked.sub_string f.data ~pos:0 ~len:f.durable
let size f = Chunked.length f.data
let durable_size f = f.durable

let replace_atomic t fname contents =
  if allow_durability t then begin
    let f = open_file t fname in
    Chunked.truncate f.data 0;
    Chunked.add_string f.data contents;
    f.durable <- String.length contents;
    t.synced_bytes <- t.synced_bytes + String.length contents;
    t.sync_count <- t.sync_count + 1
  end

let read_file t fname =
  match Hashtbl.find_opt t.files fname with
  | None -> None
  | Some f -> Some (read f)

(* Metadata lookup: size without materializing the contents (stat, not
   read). Used by the WAL's live-bytes accounting. *)
let file_size t fname =
  match Hashtbl.find_opt t.files fname with
  | None -> None
  | Some f -> Some (size f)

let delete t fname = if not t.dead then Hashtbl.remove t.files fname
let exists t fname = Hashtbl.mem t.files fname

let list_files t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.files [] |> List.sort compare

let crash t = crash_now t

let kill_after_syncs t n = t.kill_in <- Some n

(* Immediate freeze: same terminal state as an exhausted [kill_after_syncs]
   countdown — unsynced bytes are gone and nothing persists until [revive].
   Crash actions armed at named crash sites use this so the fiber that
   reached the site cannot leak durable writes before the scheduled node
   crash lands. *)
let kill_now t =
  if not t.dead then begin
    t.kill_in <- None;
    t.dead <- true;
    crash_now t
  end
let revive t =
  t.dead <- false;
  t.kill_in <- None

let is_dead t = t.dead

let synced_bytes t = t.synced_bytes
let sync_count t = t.sync_count

let reset_counters t =
  t.synced_bytes <- 0;
  t.sync_count <- 0
