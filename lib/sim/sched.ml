(* Binary min-heap of timers ordered by (time, sequence). Every entry knows
   its own slot, so a deadline whose waker was woken first can be taken out
   in O(log n) instead of lingering until it fires. *)
module Heap = struct
  type entry = {
    time : float;
    seq : int;
    bg : bool;
    mutable thunk : unit -> unit;
    mutable idx : int; (* slot in [arr]; -1 once popped or removed *)
  }

  type h = { mutable arr : entry array; mutable len : int }

  let dummy = { time = 0.0; seq = 0; bg = false; thunk = (fun () -> ()); idx = -1 }
  let create () = { arr = Array.make 64 dummy; len = 0 }
  let is_empty h = h.len = 0
  let top h = h.arr.(0)
  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let set h i e =
    h.arr.(i) <- e;
    e.idx <- i

  let rec sift_up h i =
    let p = (i - 1) / 2 in
    if i > 0 && less h.arr.(i) h.arr.(p) then begin
      let e = h.arr.(i) in
      set h i h.arr.(p);
      set h p e;
      sift_up h p
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = if l < h.len && less h.arr.(l) h.arr.(i) then l else i in
    let s = if r < h.len && less h.arr.(r) h.arr.(s) then r else s in
    if s <> i then begin
      let e = h.arr.(i) in
      set h i h.arr.(s);
      set h s e;
      sift_down h s
    end

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    set h h.len e;
    h.len <- h.len + 1;
    sift_up h e.idx

  (* Take [e] out, moving the last entry into its slot. *)
  let remove h e =
    let i = e.idx in
    assert (i >= 0 && i < h.len && h.arr.(i) == e);
    h.len <- h.len - 1;
    let last = h.arr.(h.len) in
    h.arr.(h.len) <- dummy;
    e.idx <- -1;
    if i < h.len then begin
      set h i last;
      sift_down h i;
      sift_up h last.idx
    end

  let pop h =
    let e = top h in
    remove h e;
    e
end

(* Ready set: an indexable queue so a scheduling policy can pick any entry,
   not just the head. Priorities and thunks sit in parallel arrays, so a
   push allocates nothing. [take 0] (the FIFO fast path) is O(1); removing
   from the middle shifts the tail, which is fine because ready sets are
   small. *)
module Ready = struct
  type q = {
    mutable prio : int array;
    mutable thunk : (unit -> unit) array;
    mutable head : int;
    mutable len : int;
  }

  let nop () = ()
  let create () = { prio = Array.make 64 0; thunk = Array.make 64 nop; head = 0; len = 0 }
  let length q = q.len

  let push q p th =
    if q.head + q.len = Array.length q.thunk then begin
      let cap = Array.length q.thunk in
      let newcap = if 2 * q.len > cap then 2 * cap else cap in
      let prio = Array.make newcap 0 and thunk = Array.make newcap nop in
      Array.blit q.prio q.head prio 0 q.len;
      Array.blit q.thunk q.head thunk 0 q.len;
      q.prio <- prio;
      q.thunk <- thunk;
      q.head <- 0
    end;
    q.prio.(q.head + q.len) <- p;
    q.thunk.(q.head + q.len) <- th;
    q.len <- q.len + 1

  (* Index (relative to the head) of the maximum-priority entry; ties go to
     the oldest, so equal priorities degrade to FIFO. *)
  let argmax_prio q =
    let best = ref 0 in
    for i = 1 to q.len - 1 do
      if q.prio.(q.head + i) > q.prio.(q.head + !best) then best := i
    done;
    !best

  let take q i =
    assert (i >= 0 && i < q.len);
    let th = q.thunk.(q.head + i) in
    if i = 0 then begin
      q.thunk.(q.head) <- nop;
      q.head <- q.head + 1
    end
    else begin
      let j = q.head + i and rest = q.len - i - 1 in
      Array.blit q.prio (j + 1) q.prio j rest;
      Array.blit q.thunk (j + 1) q.thunk j rest;
      q.thunk.(q.head + q.len - 1) <- nop
    end;
    q.len <- q.len - 1;
    if q.len = 0 then q.head <- 0;
    th
end

type decision = Pick of int | Timer_fired of int | Fault of string

type policy =
  | Fifo
  | Random_priority of int
  | Replay of decision array

(* The recent-decisions ring codes a pick or timer firing as one
   non-negative int: [Pick i] as [2i], [Timer_fired seq] as [2*seq+1]. *)
let enc_pick i = i lsl 1
let enc_timer seq = (seq lsl 1) lor 1

let dec code = if code land 1 = 0 then Pick (code lsr 1) else Timer_fired (code lsr 1)

(* The trace codec, shared by the live trace and [pack_trace]. Each token
   is a varint whose first byte holds a continuation bit (0x80), five
   payload bits and a two-bit tag; each later byte holds seven more
   payload bits, low group first:
   - tag 0: a run of [payload] consecutive [Pick 0];
   - tag 1: [Pick payload], payload >= 1;
   - tag 2: [Timer_fired], payload the zigzag-coded difference from the
     previous firing's sequence number (from 0 for the first).
   Under FIFO nearly every decision is [Pick 0], so a whole run between two
   timer firings takes a byte or two. Payloads are 63-bit words read
   unsigned, so any difference codes, in at most ten bytes. Faults carry a
   string and are rare, so they live in a side list keyed by their position
   in the decision sequence. *)
module Trace_codec = struct
  type w = {
    bytes : Rrq_util.Chunked.t;
    mutable run : int; (* [Pick 0]s not yet written as a run token *)
    mutable last_timer : int;
    mutable n : int; (* decisions recorded, the pending run included *)
  }

  let create () = { bytes = Rrq_util.Chunked.create (); run = 0; last_timer = 0; n = 0 }

  let token w tag payload =
    let b = w.bytes in
    let first = tag lor ((payload land 0x1f) lsl 2) and rest = ref (payload lsr 5) in
    if !rest = 0 then Rrq_util.Chunked.add_char b (Char.unsafe_chr first)
    else begin
      Rrq_util.Chunked.add_char b (Char.unsafe_chr (first lor 0x80));
      while !rest >= 0x80 do
        Rrq_util.Chunked.add_char b (Char.unsafe_chr (!rest land 0x7f lor 0x80));
        rest := !rest lsr 7
      done;
      Rrq_util.Chunked.add_char b (Char.unsafe_chr !rest)
    end

  let flush_run w =
    if w.run > 0 then begin
      token w 0 w.run;
      w.run <- 0
    end

  let pick w i =
    if i = 0 then w.run <- w.run + 1
    else begin
      flush_run w;
      token w 1 i
    end;
    w.n <- w.n + 1

  let timer w seq =
    flush_run w;
    let d = seq - w.last_timer in
    w.last_timer <- seq;
    token w 2 ((d lsl 1) lxor (d asr 62));
    w.n <- w.n + 1

  (* [f d] for every decision of the encoded string [s], in order. *)
  let decode s f =
    let len = String.length s and pos = ref 0 and last = ref 0 in
    let byte () =
      if !pos >= len then invalid_arg "Sched.unpack_trace: truncated varint";
      let c = Char.code (String.unsafe_get s !pos) in
      incr pos;
      c
    in
    while !pos < len do
      let first = byte () in
      let payload = ref ((first lsr 2) land 0x1f) and shift = ref 5 in
      let more = ref (first land 0x80 <> 0) in
      while !more do
        let c = byte () in
        payload := !payload lor ((c land 0x7f) lsl !shift);
        shift := !shift + 7;
        more := c land 0x80 <> 0
      done;
      match first land 3 with
      | 0 ->
        for _ = 1 to !payload do
          f (Pick 0)
        done
      | 1 -> f (Pick !payload)
      | 2 ->
        last := !last + ((!payload lsr 1) lxor -(!payload land 1));
        f (Timer_fired !last)
      | _ -> invalid_arg "Sched.unpack_trace: unknown token"
    done

  (* Every decision recorded in [w], in order. *)
  let iter w f =
    decode (Rrq_util.Chunked.contents w.bytes) f;
    for _ = 1 to w.run do
      f (Pick 0)
    done
end

let pack_trace ds =
  let w = Trace_codec.create () in
  Array.iter
    (function
      | Pick i when i >= 0 -> Trace_codec.pick w i
      | Timer_fired s when s >= 0 -> Trace_codec.timer w s
      | Fault _ -> invalid_arg "Sched.pack_trace: fault notes are not packed"
      | Pick _ | Timer_fired _ -> invalid_arg "Sched.pack_trace: negative decision")
    ds;
  Trace_codec.flush_run w;
  Rrq_util.Chunked.contents w.bytes

let unpack_trace s =
  let acc = ref [] in
  Trace_codec.decode s (fun d -> acc := d :: !acc);
  Array.of_list (List.rev !acc)

let decision_to_string = function
  | Pick i -> "p" ^ string_of_int i
  | Timer_fired s -> "t" ^ string_of_int s
  | Fault l -> "f:" ^ l

let decision_of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Sched.decision_of_string: empty"
  else if s.[0] = 'p' then Pick (int_of_string (String.sub s 1 (n - 1)))
  else if s.[0] = 't' then Timer_fired (int_of_string (String.sub s 1 (n - 1)))
  else if n >= 2 && s.[0] = 'f' && s.[1] = ':' then Fault (String.sub s 2 (n - 2))
  else invalid_arg ("Sched.decision_of_string: " ^ s)

let trace_to_string ds =
  String.concat ";" (Array.to_list (Array.map decision_to_string ds))

let trace_of_string s =
  if s = "" then [||]
  else Array.of_list (List.map decision_of_string (String.split_on_char ';' s))

let recent_size = 24

type fiber = {
  name : string;
  group : string option;
  mutable live : bool;
  fsched : t;
}

and t = {
  mutable vnow : float;
  ready : Ready.q;
  timers : Heap.h;
  mutable fg_timers : int; (* non-background timers still in the heap *)
  (* Foreground horizon: the latest foreground deadline taken out of the
     heap before it fired ([Heap.dummy], at time 0, if none). Had it stayed,
     it would have kept [run] going until it fired, so [run] still fires
     every timer ordered before it and ends no earlier than its time. *)
  mutable horizon : Heap.entry;
  mutable seq : int;
  mutable next_fid : int;
  (* Newest first. Dead fibers are pruned whenever the table reaches
     [prune_at] entries, which then doubles past the survivors: amortised
     O(1) per spawn, and the table stays proportional to the live set. *)
  mutable fiber_table : fiber list;
  mutable n_fibers : int;
  mutable prune_at : int;
  mutable errors : (string * exn) list;
  pol : policy;
  prng : Rrq_util.Rng.t option; (* priority source for Random_priority *)
  mutable replay_pos : int; (* cursor into the Replay decision array *)
  (* Decision trace: coded picks/timer firings up to [tr_limit], plus a
     side list of injected faults. [n_decisions] counts past the limit so
     truncation is detectable; [recent] is a ring of the last few codes for
     livelock diagnostics. *)
  tr : Trace_codec.w;
  tr_limit : int;
  mutable n_decisions : int;
  mutable faults : (int * string) list; (* (position, label), newest first *)
  recent : int array;
  mutable recent_n : int;
}

let create ?(policy = Fifo) ?(trace_limit = 1_000_000) () =
  {
    vnow = 0.0;
    ready = Ready.create ();
    timers = Heap.create ();
    fg_timers = 0;
    horizon = Heap.dummy;
    seq = 0;
    next_fid = 0;
    fiber_table = [];
    n_fibers = 0;
    prune_at = 64;
    errors = [];
    pol = policy;
    prng =
      (match policy with
      | Random_priority seed -> Some (Rrq_util.Rng.create seed)
      | Fifo | Replay _ -> None);
    replay_pos = 0;
    tr = Trace_codec.create ();
    tr_limit = max 0 trace_limit;
    n_decisions = 0;
    faults = [];
    recent = Array.make recent_size (-1);
    recent_n = 0;
  }

(* The running-fiber slot: the fiber [run] is executing right now, or
   [no_fiber] in scheduler context (timer callbacks, suspend registrations,
   outside [run]). Reading it is what makes [clock], [self] and [in_fiber]
   plain loads instead of effect performs. *)
let no_fiber = { name = ""; group = None; live = false; fsched = create () }
let running = ref no_fiber

let now t = t.vnow

let note_recent t code =
  t.recent.(t.n_decisions mod recent_size) <- code;
  t.recent_n <- min recent_size (t.recent_n + 1);
  t.n_decisions <- t.n_decisions + 1

let record_pick t i =
  if t.tr.Trace_codec.n < t.tr_limit then Trace_codec.pick t.tr i;
  note_recent t (enc_pick i)

let record_timer t seq =
  if t.tr.Trace_codec.n < t.tr_limit then Trace_codec.timer t.tr seq;
  note_recent t (enc_timer seq)

let note_fault t label = t.faults <- (t.n_decisions, label) :: t.faults

(* Decisions in order, with each fault note spliced in at the position it
   was injected (faults recorded at position [p] precede the p-th pick). *)
let trace t =
  let faults = ref (List.rev t.faults) in
  let acc = ref [] in
  let splice_up_to pos =
    let continue_ = ref true in
    while !continue_ do
      match !faults with
      | (p, l) :: rest when p <= pos ->
        faults := rest;
        acc := Fault l :: !acc
      | _ -> continue_ := false
    done
  in
  let i = ref 0 in
  Trace_codec.iter t.tr (fun d ->
      splice_up_to !i;
      incr i;
      acc := d :: !acc);
  splice_up_to max_int;
  Array.of_list (List.rev !acc)

let trace_truncated t = t.n_decisions > t.tr.Trace_codec.n

let recent_decisions t =
  let n = t.recent_n in
  List.init n (fun i ->
      dec t.recent.((t.n_decisions - n + i) mod recent_size))

let add_timer t ~background time thunk =
  t.seq <- t.seq + 1;
  if not background then t.fg_timers <- t.fg_timers + 1;
  let e =
    { Heap.time = Float.max time t.vnow; seq = t.seq; bg = background; thunk; idx = -1 }
  in
  Heap.push t.timers e;
  e

let at ?(background = false) t time thunk = ignore (add_timer t ~background time thunk)

(* Take a foreground deadline out of the heap before it fires, raising the
   horizon to it. Its callback is dropped: the entry may live on as the
   horizon, which needs only its time and sequence number. *)
let cancel_deadline t (e : Heap.entry) =
  if e.idx >= 0 then begin
    Heap.remove t.timers e;
    e.thunk <- Heap.dummy.thunk;
    t.fg_timers <- t.fg_timers - 1;
    if Heap.less t.horizon e then t.horizon <- e
  end

let push_ready t thunk =
  let prio = match t.prng with Some rng -> Rrq_util.Rng.int rng 1_000_000 | None -> 0 in
  Ready.push t.ready prio thunk

type 'a waker = {
  mutable used : bool;
  wfiber : fiber;
  wk : ('a, unit) Effect.Deep.continuation;
  mutable deadline : Heap.entry; (* from [wake_at]; [Heap.dummy] if none *)
}

let waker_live w = (not w.used) && w.wfiber.live

let wake w v =
  if w.used then false
  else begin
    w.used <- true;
    let sched = w.wfiber.fsched in
    if w.deadline != Heap.dummy then begin
      cancel_deadline sched w.deadline;
      w.deadline <- Heap.dummy
    end;
    if w.wfiber.live then begin
      push_ready sched (fun () ->
          if w.wfiber.live then begin
            running := w.wfiber;
            Effect.Deep.continue w.wk v
          end);
      true
    end
    else false
  end

let wake_at t time w v =
  let e = add_timer t ~background:false time (fun () -> ignore (wake w v)) in
  if not w.used then w.deadline <- e

type _ Effect.t +=
  | Suspend : (t -> 'a waker -> unit) -> 'a Effect.t
  | Clock : float Effect.t
  | Self : fiber Effect.t

(* Outside a fiber these raise [Effect.Unhandled], as performing an effect
   with no handler installed would. *)
let self () =
  let f = !running in
  if f == no_fiber then raise (Effect.Unhandled Self) else f

let clock () =
  let f = !running in
  if f == no_fiber then raise (Effect.Unhandled Clock) else f.fsched.vnow

(* Whether the caller runs inside a fiber (so blocking primitives work).
   Library code that is also usable outside the simulator — the group-commit
   force path — uses this to fall back to synchronous behavior. *)
let in_fiber () = !running != no_fiber
let suspend register = Effect.perform (Suspend register)

(* Nothing else can wake a sleeper, so its timer needs no removal. *)
let sleep d =
  suspend (fun sched w -> at sched (sched.vnow +. d) (fun () -> ignore (wake w ())))

(* Background sleep: daemons (janitors, resolvers, redelivery retries) use
   this so an otherwise-quiescent simulation can terminate. *)
let sleep_background d =
  suspend (fun sched w ->
      at ~background:true sched (sched.vnow +. d) (fun () -> ignore (wake w ())))

let yield () =
  suspend (fun sched w -> push_ready sched (fun () -> ignore (wake w ())))

(* One handler serves every fiber: it finds the fiber in the running-fiber
   slot, which [run] points at the fiber before starting or resuming it, so
   starting a fiber builds no handler record or closures of its own. *)
let fiber_handler : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        let fib = !running in
        fib.live <- false;
        running := no_fiber);
    exnc =
      (fun e ->
        let fib = !running in
        fib.live <- false;
        running := no_fiber;
        (* An injected crash is a kill, not a program failure: the fiber
           unwound exactly as a crashed process disappears. *)
        match e with
        | Crashpoint.Crash -> ()
        | e -> fib.fsched.errors <- (fib.name, e) :: fib.fsched.errors);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
          Some
            (fun (k : (a, _) Effect.Deep.continuation) ->
              let fib = !running in
              running := no_fiber;
              register fib.fsched
                { used = false; wfiber = fib; wk = k; deadline = Heap.dummy })
        | _ -> None);
  }

let start fib body =
  running := fib;
  Effect.Deep.match_with body () fiber_handler

let spawn t ?group ~name body =
  t.next_fid <- t.next_fid + 1;
  let fib = { name; group; live = true; fsched = t } in
  if t.n_fibers >= t.prune_at then begin
    t.fiber_table <- List.filter (fun f -> f.live) t.fiber_table;
    t.n_fibers <- List.length t.fiber_table;
    t.prune_at <- max 64 (2 * t.n_fibers)
  end;
  t.fiber_table <- fib :: t.fiber_table;
  t.n_fibers <- t.n_fibers + 1;
  push_ready t (fun () -> if fib.live then start fib body);
  fib

let fork ?name body =
  let parent = self () in
  let t = parent.fsched in
  let name =
    match name with
    | Some n -> n
    | None -> parent.name ^ "/" ^ string_of_int (t.next_fid + 1)
  in
  spawn t ?group:parent.group ~name body

let kill _t fib = fib.live <- false

let kill_group t group =
  List.iter
    (fun fib -> if fib.live && fib.group = Some group then fib.live <- false)
    t.fiber_table

let alive fib = fib.live
let fiber_name fib = fib.name
let fiber_group fib = fib.group

let live_fibers t =
  List.rev_map (fun f -> f.name) (List.filter (fun f -> f.live) t.fiber_table)

let failures t = List.rev t.errors

(* The next recorded pick of a replayed trace; non-pick entries (timer
   firings, fault notes) are informational and skipped. A divergent or
   exhausted trace degrades to FIFO rather than failing, so a replay of a
   slightly-stale trace still runs to completion. *)
let replay_pick t arr n =
  let rec go () =
    if t.replay_pos >= Array.length arr then 0
    else begin
      let d = arr.(t.replay_pos) in
      t.replay_pos <- t.replay_pos + 1;
      match d with
      | Pick i -> if i < n then i else 0
      | Timer_fired _ | Fault _ -> go ()
    end
  in
  go ()

let pick_index t n =
  match t.pol with
  | Fifo -> 0
  | Random_priority _ -> Ready.argmax_prio t.ready
  | Replay arr -> replay_pick t arr n

let limit_failure t =
  let live = live_fibers t in
  let shown, more =
    let rec split n acc = function
      | [] -> (List.rev acc, 0)
      | rest when n = 0 -> (List.rev acc, List.length rest)
      | x :: rest -> split (n - 1) (x :: acc) rest
    in
    split 20 [] live
  in
  let live_s =
    String.concat ", " shown
    ^ if more > 0 then Printf.sprintf ", ...(+%d more)" more else ""
  in
  let recent_s =
    String.concat " " (List.map decision_to_string (recent_decisions t))
  in
  Printf.sprintf
    "Sched.run: step limit exceeded (livelock?) at t=%.3f; %d live fibers: \
     [%s]; last %d decisions: %s"
    t.vnow (List.length live) live_s (List.length (recent_decisions t)) recent_s

(* Whether the earliest timer fires now: a live foreground timer remains,
   or the earliest one is ordered before the foreground horizon. *)
let timer_due t =
  (not (Heap.is_empty t.timers))
  && (t.fg_timers > 0 || Heap.less (Heap.top t.timers) t.horizon)

let run ?(max_steps = 50_000_000) t =
  let outer = !running in
  running := no_fiber;
  Fun.protect
    ~finally:(fun () -> running := outer)
    (fun () ->
      let steps = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let n = Ready.length t.ready in
        if n > 0 then begin
          incr steps;
          if !steps > max_steps then failwith (limit_failure t);
          let i = pick_index t n in
          record_pick t i;
          let thunk = Ready.take t.ready i in
          thunk ()
        end
        else if timer_due t then begin
          let e = Heap.pop t.timers in
          if e.time > t.vnow then t.vnow <- e.time;
          if not e.bg then t.fg_timers <- t.fg_timers - 1;
          incr steps;
          if !steps > max_steps then failwith (limit_failure t);
          record_timer t e.seq;
          e.thunk ()
        end
        else continue_ := false
      done;
      (* The removed deadlines would have fired by now: end where the last
         of them would have left the clock. *)
      if t.horizon.time > t.vnow then t.vnow <- t.horizon.time)
