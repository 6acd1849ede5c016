(* Tests for the simulated disk and the write-ahead log, including crash
   and torn-write recovery properties. *)

module Disk = Rrq_storage.Disk
module Wal = Rrq_wal.Wal
module Rng = Rrq_util.Rng
module Codec = Rrq_util.Codec

(* --- Disk ---------------------------------------------------------- *)

let test_disk_sync_survives_crash () =
  let d = Disk.create "d0" in
  let f = Disk.open_file d "a" in
  Disk.append f "hello";
  Disk.sync f;
  Disk.append f "lost";
  Alcotest.(check string) "pre-crash read sees all" "hellolost" (Disk.read f);
  Disk.crash d;
  Alcotest.(check string) "post-crash only synced" "hello" (Disk.read f)

let test_disk_atomic_replace () =
  let d = Disk.create "d0" in
  Disk.replace_atomic d "ck" "v1";
  Disk.crash d;
  Alcotest.(check (option string)) "atomic replace durable" (Some "v1")
    (Disk.read_file d "ck");
  Disk.replace_atomic d "ck" "v2";
  Alcotest.(check (option string)) "replaced" (Some "v2") (Disk.read_file d "ck")

let test_disk_delete_and_list () =
  let d = Disk.create "d0" in
  ignore (Disk.open_file d "x");
  ignore (Disk.open_file d "y");
  Alcotest.(check (list string)) "listed" [ "x"; "y" ] (Disk.list_files d);
  Disk.delete d "x";
  Alcotest.(check bool) "gone" false (Disk.exists d "x")

let test_disk_counters () =
  let d = Disk.create "d0" in
  let f = Disk.open_file d "a" in
  Disk.append f "12345";
  Disk.sync f;
  Alcotest.(check int) "synced bytes" 5 (Disk.synced_bytes d);
  Alcotest.(check int) "sync count" 1 (Disk.sync_count d);
  Disk.reset_counters d;
  Alcotest.(check int) "reset" 0 (Disk.synced_bytes d)

(* A file keeps its bytes in 4 KiB chunks. Appends that straddle chunk
   boundaries, in every append form, read back whole, and sync, crash and
   the size queries see one contiguous file. *)
let test_disk_chunk_boundaries () =
  let d = Disk.create "d0" in
  let f = Disk.open_file d "log" in
  let expect = Buffer.create 10_000 in
  let add s =
    Disk.append f s;
    Buffer.add_string expect s
  in
  add (String.make 4090 'a');
  (* 8 bytes across the first boundary *)
  Disk.append_i64 f 0x0102030405060708L;
  Buffer.add_int64_le expect 0x0102030405060708L;
  let b = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
  Disk.append_sub f b ~pos:7 ~len:4200;
  Buffer.add_subbytes expect b 7 4200;
  Disk.sync f;
  let synced = Buffer.contents expect in
  add (String.make 300 'z');
  Alcotest.(check string) "read: synced plus pending" (Buffer.contents expect) (Disk.read f);
  Alcotest.(check string) "read_durable: synced only" synced (Disk.read_durable f);
  Alcotest.(check int) "size" (Buffer.length expect) (Disk.size f);
  Alcotest.(check int) "durable_size" (String.length synced) (Disk.durable_size f);
  Alcotest.(check (option int)) "file_size" (Some (Buffer.length expect)) (Disk.file_size d "log");
  Alcotest.(check int) "synced bytes" (String.length synced) (Disk.synced_bytes d);
  Disk.crash d;
  Alcotest.(check string) "crash drops the pending tail" synced (Disk.read f);
  add "after";
  Disk.sync f;
  Alcotest.(check string) "append after a crash" (synced ^ "after") (Disk.read_durable f)

(* A torn write keeps a prefix of the unsynced tail, also when that tail
   crosses a chunk boundary. *)
let test_disk_torn_across_chunks () =
  let base = String.make 4000 'd' and tail = String.init 300 (fun i -> Char.chr (65 + (i mod 26))) in
  let crossed = ref 0 in
  for seed = 0 to 39 do
    let d = Disk.create ~torn_writes:true ~rng:(Rng.create seed) "d0" in
    let f = Disk.open_file d "log" in
    Disk.append f base;
    Disk.sync f;
    Disk.append f tail;
    Disk.crash d;
    let got = Disk.read f in
    let n = String.length got in
    Alcotest.(check bool) "between the synced part and the whole" true
      (n >= 4000 && n <= 4300);
    Alcotest.(check string) "a prefix of what was appended"
      (String.sub (base ^ tail) 0 n) got;
    Alcotest.(check int) "the kept prefix is durable" n (Disk.durable_size f);
    if n > Rrq_util.Chunked.chunk_size && n < 4300 then incr crossed
  done;
  Alcotest.(check bool) "some torn prefix ends past the boundary" true (!crossed > 0)

(* A page rewrite and read-back copy one page and allocate nothing. *)
let test_disk_page_roundtrip () =
  let d = Disk.create "d0" in
  let f = Disk.open_file d "q.page" in
  Disk.append f "unsynced";
  let page = Bytes.make 4096 'p' and back = Bytes.make 4096 '\000' in
  Bytes.set page 4095 'e';
  Disk.write_page f page;
  Disk.read_page f back;
  Alcotest.(check bytes) "round trip" page back;
  Alcotest.(check int) "a page replaces pending bytes" 4096 (Disk.size f);
  Alcotest.(check int) "durable at once" 4096 (Disk.durable_size f);
  let short = Bytes.make 10 '\000' in
  Disk.read_page f short;
  Alcotest.(check string) "short read copies a prefix" (String.make 10 'p') (Bytes.to_string short);
  let n = 1_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Bytes.unsafe_set page 0 (Char.unsafe_chr (i land 0xff));
    Disk.write_page f page;
    Disk.read_page f back
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int (2 * n) in
  Alcotest.(check bool) (Printf.sprintf "no allocation (%.2f words/op)" per_op) true (per_op < 0.5);
  Alcotest.(check bytes) "last write read back" page back;
  Disk.crash d;
  Disk.read_page f back;
  Alcotest.(check bytes) "a written page survives a crash" page back

(* An atomic replace swaps a multi-chunk file for shorter contents and
   drops any pending tail. *)
let test_disk_replace_shrinks () =
  let d = Disk.create "d0" in
  let f = Disk.open_file d "ck" in
  Disk.append f (String.make 9000 'x');
  Disk.sync f;
  Disk.append f "pending";
  Disk.replace_atomic d "ck" "v2";
  Alcotest.(check string) "replaced" "v2" (Disk.read f);
  Alcotest.(check int) "durable" 2 (Disk.durable_size f);
  Disk.crash d;
  Alcotest.(check (option string)) "survives a crash" (Some "v2") (Disk.read_file d "ck")

(* --- WAL ----------------------------------------------------------- *)

let test_wal_roundtrip () =
  let d = Disk.create "d0" in
  let w, r0 = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "fresh: no snapshot" None r0.Wal.snapshot;
  Alcotest.(check (list string)) "fresh: no records" [] r0.Wal.records;
  Wal.append w "one";
  Wal.append w "two";
  Wal.sync w;
  let _, r1 = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "recovered" [ "one"; "two" ] r1.Wal.records

let test_wal_unsynced_lost () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "durable";
  Wal.append w "volatile";
  Disk.crash d;
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "only synced survives" [ "durable" ] r.Wal.records

let test_wal_checkpoint_truncates () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "a";
  Wal.append_sync w "b";
  Wal.checkpoint w "SNAP";
  Wal.append_sync w "c";
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "snapshot" (Some "SNAP") r.Wal.snapshot;
  Alcotest.(check (list string)) "post-ckpt records only" [ "c" ] r.Wal.records

let test_wal_since_checkpoint_counter () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "a";
  Alcotest.(check int) "one" 1 (Wal.records_since_checkpoint w);
  Wal.checkpoint w "s";
  Alcotest.(check int) "zero" 0 (Wal.records_since_checkpoint w)

let test_wal_append_after_recovery () =
  let d = Disk.create "d0" in
  let w1, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w1 "a";
  Disk.crash d;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "a recovered" [ "a" ] r.Wal.records;
  Wal.append_sync w2 "b";
  let _, r2 = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "both" [ "a"; "b" ] r2.Wal.records

let test_wal_torn_tail_truncated () =
  (* Write a frame, then corrupt its tail manually by syncing only part of
     it: emulate by appending garbage that is not a valid frame. *)
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Wal.append_sync w "good";
  (* A torn half-frame at the durable tail: *)
  let f = Disk.open_file d "log.seg0" in
  Disk.append f "\x99\x00\x00garbage";
  Disk.sync f;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "good record kept" [ "good" ] r.Wal.records;
  Wal.append_sync w2 "after";
  let _, r2 = Wal.open_log d ~name:"log" in
  Alcotest.(check (list string)) "log usable after torn tail" [ "good"; "after" ]
    r2.Wal.records

let test_wal_segment_gc () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  for i = 1 to 5 do
    Wal.append_sync w (Printf.sprintf "r%d" i)
  done;
  let files_before = List.length (Disk.list_files d) in
  Wal.checkpoint w "S1";
  Wal.append_sync w "r6";
  Wal.checkpoint w "S2";
  Wal.append_sync w "r7";
  (* old segments must have been deleted *)
  let seg_files =
    List.filter
      (fun f -> String.length f > 7 && String.sub f 0 7 = "log.seg")
      (Disk.list_files d)
  in
  Alcotest.(check int) "exactly one live segment" 1 (List.length seg_files);
  Alcotest.(check bool) "file count bounded" true
    (List.length (Disk.list_files d) <= files_before + 1);
  let _, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "latest snapshot" (Some "S2") r.Wal.snapshot;
  Alcotest.(check (list string)) "post-ckpt records" [ "r7" ] r.Wal.records

let test_disk_file_size () =
  let d = Disk.create "d0" in
  Alcotest.(check (option int)) "missing file" None (Disk.file_size d "nope");
  let f = Disk.open_file d "a" in
  Disk.append f "12345";
  Alcotest.(check (option int)) "pending counted" (Some 5) (Disk.file_size d "a");
  Disk.sync f;
  Disk.append f "67";
  Alcotest.(check (option int)) "durable+pending" (Some 7) (Disk.file_size d "a")

let test_wal_lsn_split () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  Alcotest.(check (pair int int)) "fresh" (0, 0)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.append w "a";
  Wal.append w "b";
  Alcotest.(check (pair int int)) "appends buffer" (2, 0)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.sync w;
  Alcotest.(check (pair int int)) "sync catches up" (2, 2)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.append w "c";
  (* A checkpoint snapshot covers applied-but-unsynced records (commit
     paths apply before yielding), so it advances the durable LSN too. *)
  Wal.checkpoint w "S";
  Alcotest.(check (pair int int)) "checkpoint is a force" (3, 3)
    (Wal.appended_lsn w, Wal.durable_lsn w);
  Wal.append w "d";
  Disk.kill_after_syncs d 1;
  Wal.sync w;
  Alcotest.(check bool) "disk died on the sync" true (Disk.is_dead d);
  Alcotest.(check (pair int int)) "suppressed sync moves nothing" (4, 3)
    (Wal.appended_lsn w, Wal.durable_lsn w)

(* Recovery over a log spread across many segments (each reopen retires the
   active segment) must return every record in order — and do it in time
   linear in the log, not quadratic (the old accumulate-with-[@] scan). *)
let test_wal_multi_segment_recovery () =
  let d = Disk.create "d0" in
  let n_opens = 40 and per = 25 in
  for s = 0 to n_opens - 1 do
    let w, _ = Wal.open_log d ~name:"log" in
    for i = 1 to per do
      Wal.append_sync w (Printf.sprintf "s%d-%d" s i)
    done
  done;
  let t0 = Sys.time () in
  let _, r = Wal.open_log d ~name:"log" in
  let dt = Sys.time () -. t0 in
  Alcotest.(check int) "all records recovered" (n_opens * per)
    (List.length r.Wal.records);
  Alcotest.(check (option string)) "in order, oldest first" (Some "s0-1")
    (List.nth_opt r.Wal.records 0);
  Alcotest.(check (option string))
    "in order, newest last"
    (Some (Printf.sprintf "s%d-%d" (n_opens - 1) per))
    (List.nth_opt r.Wal.records ((n_opens * per) - 1));
  Alcotest.(check bool)
    (Printf.sprintf "recovery fast enough (%.3fs)" dt)
    true (dt < 2.0)

let test_wal_checkpoint_one_live_segment () =
  let d = Disk.create "d0" in
  let seg_files () =
    List.filter
      (fun f -> String.length f > 7 && String.sub f 0 7 = "log.seg")
      (Disk.list_files d)
  in
  let w, _ = Wal.open_log d ~name:"log" in
  for i = 1 to 5 do
    Wal.append_sync w (Printf.sprintf "r%d" i)
  done;
  Wal.checkpoint w "S1";
  Alcotest.(check int) "checkpoint leaves exactly one live segment" 1
    (List.length (seg_files ()));
  (* A crash between checkpoint install and segment deletion leaves stale
     pre-checkpoint segments behind; recovery must drop them unscanned.
     Resurrect one by hand (with garbage, so scanning it would show). *)
  let stale = Disk.open_file d "log.seg0" in
  Disk.append stale "\x99\x99garbage-not-a-frame";
  Disk.sync stale;
  Disk.crash d;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "snapshot survives" (Some "S1") r.Wal.snapshot;
  Alcotest.(check (list string)) "no pre-checkpoint records" [] r.Wal.records;
  Alcotest.(check bool) "stale segment deleted" false (Disk.exists d "log.seg0");
  Wal.append_sync w2 "r6";
  Wal.checkpoint w2 "S2";
  Alcotest.(check int) "still exactly one live segment" 1
    (List.length (seg_files ()))

let test_wal_crash_during_checkpoint_install () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  for i = 1 to 5 do
    Wal.append_sync w (Printf.sprintf "r%d" i)
  done;
  (* The next durability action is the checkpoint's atomic install: the
     crash voids the whole checkpoint, and recovery falls back to the log. *)
  Disk.kill_after_syncs d 1;
  Wal.checkpoint w "S1";
  Alcotest.(check bool) "died installing the checkpoint" true (Disk.is_dead d);
  Disk.revive d;
  let w2, r = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "no snapshot installed" None r.Wal.snapshot;
  Alcotest.(check (list string)) "all records recovered from segments"
    [ "r1"; "r2"; "r3"; "r4"; "r5" ]
    r.Wal.records;
  (* The incarnation recovers fully: a later checkpoint compacts as usual. *)
  Wal.checkpoint w2 "S2";
  Wal.append_sync w2 "r6";
  let seg_files =
    List.filter
      (fun f -> String.length f > 7 && String.sub f 0 7 = "log.seg")
      (Disk.list_files d)
  in
  Alcotest.(check int) "recovered checkpoint leaves one live segment" 1
    (List.length seg_files);
  let _, r2 = Wal.open_log d ~name:"log" in
  Alcotest.(check (option string)) "snapshot" (Some "S2") r2.Wal.snapshot;
  Alcotest.(check (list string)) "post-ckpt records" [ "r6" ] r2.Wal.records

let test_wal_live_log_bytes_shrinks () =
  let d = Disk.create "d0" in
  let w, _ = Wal.open_log d ~name:"log" in
  for _ = 1 to 50 do
    Wal.append_sync w (String.make 100 'x')
  done;
  let before = Wal.live_log_bytes w in
  Wal.checkpoint w "snap";
  Alcotest.(check bool) "log shrank" true (Wal.live_log_bytes w < before / 10)

(* Property: for any interleaving of appends/syncs/crashes, recovery yields
   a prefix of the appended records that includes every synced record. *)
let prop_wal_prefix_durability =
  QCheck2.Test.make ~name:"wal recovers synced-prefix" ~count:200
    QCheck2.Gen.(list_size (int_bound 60) (int_range 0 2))
    (fun script ->
      let d = Disk.create ~torn_writes:true ~rng:(Rng.create 7) "d" in
      let w = ref (fst (Wal.open_log d ~name:"log")) in
      let appended = ref [] in
      let synced_hwm = ref 0 in
      let n = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            incr n;
            let r = Printf.sprintf "r%d" !n in
            Wal.append !w r;
            appended := !appended @ [ r ]
          | 1 ->
            Wal.sync !w;
            synced_hwm := List.length !appended
          | _ ->
            Disk.crash d;
            let w', rec_ = Wal.open_log d ~name:"log" in
            w := w';
            (* Recovered records must be a prefix of appended covering all
               synced ones. *)
            let recs = rec_.Wal.records in
            let len = List.length recs in
            if len < !synced_hwm then failwith "lost synced record";
            if len > List.length !appended then failwith "phantom record";
            List.iteri
              (fun i r ->
                if List.nth !appended i <> r then failwith "order mismatch")
              recs;
            appended := recs;
            synced_hwm := len)
        script;
      true)

(* Both append routes frame a record identically, as
   [len | frame64 | payload], so a log written through the scratch encoder
   and one written from strings are the same bytes on disk and recover the
   same records. *)
let test_wal_append_routes_identical () =
  let records = [ "one"; ""; String.make 37 'x'; "tail\000bytes" ] in
  let by_string = Disk.create "s" and by_enc = Disk.create "e" in
  let ws, _ = Wal.open_log by_string ~name:"log" in
  let we, _ = Wal.open_log by_enc ~name:"log" in
  List.iter
    (fun r ->
      Wal.append ws r;
      let e = Wal.encoder we in
      Codec.raw e r;
      Wal.append_enc we e)
    records;
  Wal.sync ws;
  Wal.sync we;
  let expected =
    let e = Codec.encoder () in
    List.iter
      (fun r ->
        Codec.int e (String.length r);
        Codec.i64 e (Rrq_util.Checksum.frame64 r);
        Codec.raw e r)
      records;
    Codec.to_string e
  in
  let seg d = Disk.read_durable (Disk.open_file d "log.seg0") in
  Alcotest.(check string) "string route frame layout" expected (seg by_string);
  Alcotest.(check string) "encoder route frame layout" expected (seg by_enc);
  Disk.crash by_string;
  Disk.crash by_enc;
  let _, rs = Wal.open_log by_string ~name:"log" in
  let _, re = Wal.open_log by_enc ~name:"log" in
  Alcotest.(check (list string)) "string route recovers" records rs.Wal.records;
  Alcotest.(check (list string)) "encoder route recovers" records re.Wal.records

let suite =
  [
    Alcotest.test_case "disk: sync survives crash" `Quick
      test_disk_sync_survives_crash;
    Alcotest.test_case "disk: atomic replace" `Quick test_disk_atomic_replace;
    Alcotest.test_case "disk: delete/list" `Quick test_disk_delete_and_list;
    Alcotest.test_case "disk: counters" `Quick test_disk_counters;
    Alcotest.test_case "disk: appends across chunk boundaries" `Quick test_disk_chunk_boundaries;
    Alcotest.test_case "disk: torn write across a chunk boundary" `Quick
      test_disk_torn_across_chunks;
    Alcotest.test_case "disk: page round trip allocates nothing" `Quick test_disk_page_roundtrip;
    Alcotest.test_case "disk: atomic replace of a multi-chunk file" `Quick
      test_disk_replace_shrinks;
    Alcotest.test_case "wal: roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: append routes write identical bytes" `Quick
      test_wal_append_routes_identical;
    Alcotest.test_case "wal: unsynced lost" `Quick test_wal_unsynced_lost;
    Alcotest.test_case "wal: checkpoint truncates" `Quick
      test_wal_checkpoint_truncates;
    Alcotest.test_case "wal: since-checkpoint counter" `Quick
      test_wal_since_checkpoint_counter;
    Alcotest.test_case "wal: append after recovery" `Quick
      test_wal_append_after_recovery;
    Alcotest.test_case "wal: torn tail truncated" `Quick
      test_wal_torn_tail_truncated;
    Alcotest.test_case "wal: segment gc" `Quick test_wal_segment_gc;
    Alcotest.test_case "disk: file_size metadata" `Quick test_disk_file_size;
    Alcotest.test_case "wal: append/durable lsn split" `Quick
      test_wal_lsn_split;
    Alcotest.test_case "wal: multi-segment recovery" `Quick
      test_wal_multi_segment_recovery;
    Alcotest.test_case "wal: checkpoint leaves one live segment" `Quick
      test_wal_checkpoint_one_live_segment;
    Alcotest.test_case "wal: crash during checkpoint install" `Quick
      test_wal_crash_during_checkpoint_install;
    Alcotest.test_case "wal: live bytes shrink at checkpoint" `Quick
      test_wal_live_log_bytes_shrinks;
    QCheck_alcotest.to_alcotest prop_wal_prefix_durability;
  ]

(* --- Codec --------------------------------------------------------- *)

let test_codec_roundtrip () =
  let e = Codec.encoder () in
  Codec.int e 42;
  Codec.i64 e (-7L);
  Codec.bool e true;
  Codec.float e 3.25;
  Codec.string e "hello";
  Codec.option Codec.string e None;
  Codec.option Codec.int e (Some 9);
  Codec.list Codec.string e [ "a"; "b" ];
  Codec.pair Codec.int Codec.string e (1, "x");
  let d = Codec.decoder (Codec.to_string e) in
  Alcotest.(check int) "int" 42 (Codec.get_int d);
  Alcotest.(check int64) "i64" (-7L) (Codec.get_i64 d);
  Alcotest.(check bool) "bool" true (Codec.get_bool d);
  Alcotest.(check (float 0.0)) "float" 3.25 (Codec.get_float d);
  Alcotest.(check string) "string" "hello" (Codec.get_string d);
  Alcotest.(check (option string)) "none" None (Codec.get_option Codec.get_string d);
  Alcotest.(check (option int)) "some" (Some 9) (Codec.get_option Codec.get_int d);
  Alcotest.(check (list string)) "list" [ "a"; "b" ] (Codec.get_list Codec.get_string d);
  let p = Codec.get_pair Codec.get_int Codec.get_string d in
  Alcotest.(check (pair int string)) "pair" (1, "x") p;
  Alcotest.(check bool) "at end" true (Codec.at_end d)

let test_codec_truncated () =
  let d = Codec.decoder "\x01" in
  Alcotest.check_raises "truncated i64"
    (Codec.Decode_error "truncated input at 0 (+8 > 1)") (fun () ->
      ignore (Codec.get_i64 d))

let prop_codec_string_roundtrip =
  QCheck2.Test.make ~name:"codec string roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_bound 20)
                   (string_size ~gen:printable (int_bound 40)))
    (fun ss ->
      let e = Codec.encoder () in
      Codec.list Codec.string e ss;
      let d = Codec.decoder (Codec.to_string e) in
      Codec.get_list Codec.get_string d = ss && Codec.at_end d)

let codec_suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec truncated input" `Quick test_codec_truncated;
    QCheck_alcotest.to_alcotest prop_codec_string_roundtrip;
  ]

(* --- Rng / Histogram ----------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 42 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float r 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.fail "float out of bounds";
    let z = Rng.zipf r ~n:100 ~theta:0.9 in
    if z < 0 || z >= 100 then Alcotest.fail "zipf out of bounds"
  done

let test_rng_zipf_skew () =
  let r = Rng.create 7 in
  let hits = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let z = Rng.zipf r ~n:100 ~theta:0.9 in
    hits.(z) <- hits.(z) + 1
  done;
  Alcotest.(check bool) "head is hot" true (hits.(0) > hits.(50) * 5)

let test_histogram () =
  let h = Rrq_util.Histogram.create () in
  for i = 1 to 100 do
    Rrq_util.Histogram.add h (float_of_int i)
  done;
  let open Rrq_util.Histogram in
  Alcotest.(check int) "count" 100 (count h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (mean h);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (percentile h 0.99);
  Alcotest.(check (float 1e-9)) "max" 100.0 (max_value h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (min_value h)

let test_table_render () =
  let t = Rrq_util.Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Rrq_util.Table.add_row t [ "1"; "2" ];
  let s = Rrq_util.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 6 = "== T =")

let util_suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng zipf skew" `Quick test_rng_zipf_skew;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "table render" `Quick test_table_render;
  ]

let () =
  Alcotest.run "rrq-storage-wal"
    [ ("disk+wal", suite); ("codec", codec_suite); ("util", util_suite) ]
