type 'a t = {
  mutable value : 'a option;
  mutable readers : 'a option Sched.waker list;
}

let create () = { value = None; readers = [] }

let fill t v =
  match t.value with
  | Some _ -> ()
  | None ->
    let sv = Some v in
    t.value <- sv;
    let readers = t.readers in
    t.readers <- [];
    List.iter (fun w -> ignore (Sched.wake w sv)) readers

let is_filled t = t.value <> None

let read t =
  match t.value with
  | Some v -> v
  | None -> begin
    match Sched.suspend (fun _ w -> t.readers <- w :: t.readers) with
    | Some v -> v
    | None -> assert false
  end

let read_timeout t d =
  match t.value with
  | Some v -> Some v
  | None ->
    Sched.suspend (fun sched w ->
        t.readers <- w :: t.readers;
        Sched.wake_at sched (Sched.now sched +. d) w None)
