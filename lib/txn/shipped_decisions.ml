module Codec = Rrq_util.Codec
module Wal = Rrq_wal.Wal

type t = {
  wal : Wal.t;
  held : Txid.t -> string -> bool;
  (* txid -> participants that still hold it prepared here *)
  entries : (Txid.t, string list) Hashtbl.t;
  mutable bytes : int;
}

let keep t id parts =
  match List.filter (t.held id) parts with
  | [] -> Hashtbl.remove t.entries id
  | parts -> Hashtbl.replace t.entries id parts

let record t payload =
  t.bytes <- t.bytes + String.length payload;
  match Tm.shipped_decision payload with
  | Some (id, parts) -> keep t id parts
  | None -> ()

(* Snapshot: the byte count, then the kept entries. An empty snapshot is an
   empty store. *)
let encode_snapshot t =
  let e = Codec.encoder () in
  Codec.int e t.bytes;
  Codec.list
    (fun e (id, parts) ->
      Txid.encode e id;
      Codec.list Codec.string e parts)
    e
    (Hashtbl.fold (fun id parts acc -> (id, parts) :: acc) t.entries []);
  Codec.to_string e

let restore_snapshot t snap =
  if snap <> "" then begin
    let d = Codec.decoder snap in
    t.bytes <- Codec.get_int d;
    List.iter
      (fun (id, parts) -> keep t id parts)
      (Codec.get_list
         (fun d ->
           let id = Txid.decode d in
           (id, Codec.get_list Codec.get_string d))
         d)
  end

let open_store disk ~name ~held =
  let wal, recovered = Wal.open_log disk ~name in
  let t = { wal; held; entries = Hashtbl.create 16; bytes = 0 } in
  Option.iter (restore_snapshot t) recovered.Wal.snapshot;
  List.iter (record t) recovered.Wal.records;
  t

let append t payload =
  Wal.append t.wal payload;
  record t payload

let sync t = Wal.sync t.wal

let forget t id p =
  match Hashtbl.find_opt t.entries id with
  | None -> ()
  | Some parts -> (
    match List.filter (fun q -> q <> p) parts with
    | [] -> Hashtbl.remove t.entries id
    | rest -> Hashtbl.replace t.entries id rest)

let mem t id = Hashtbl.mem t.entries id
let checkpoint t = Wal.checkpoint t.wal (encode_snapshot t)

let maybe_checkpoint t ~every =
  if Wal.records_since_checkpoint t.wal >= every then checkpoint t

let reset t =
  Hashtbl.reset t.entries;
  t.bytes <- 0;
  checkpoint t

let applied_bytes t = t.bytes
let size t = Hashtbl.length t.entries
