type t = { queue : bool Sched.waker Queue.t }

let create () = { queue = Queue.create () }

let wait t =
  let ok = Sched.suspend (fun _ w -> Queue.push w t.queue) in
  assert ok

let wait_timeout t d =
  Sched.suspend (fun sched w ->
      Queue.push w t.queue;
      Sched.wake_at sched (Sched.now sched +. d) w false)

let wait_any ?timeout conds =
  Sched.suspend (fun sched w ->
      (* The same one-shot waker sits in every queue (and on the timer);
         whichever fires first wins, the rest find it dead and skip it. *)
      List.iter (fun c -> Queue.push w c.queue) conds;
      match timeout with
      | None -> ()
      | Some d -> Sched.wake_at sched (Sched.now sched +. d) w false)

let rec signal t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some w -> if not (Sched.wake w true) then signal t

let broadcast t =
  let q = Queue.create () in
  Queue.transfer t.queue q;
  Queue.iter (fun w -> ignore (Sched.wake w true)) q

let waiters t =
  Queue.fold (fun n w -> if Sched.waker_live w then n + 1 else n) 0 t.queue
