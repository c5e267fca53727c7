type event = { time : float; seq : int; action : unit -> unit }

type t = {
  mutable clock : float;
  mutable seq : int;
  queue : event Heap.t;
  master_rng : Rng.t;
  mutable executed : int;
}

let compare_event a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create ?(seed = 42) () =
  {
    clock = 0.0;
    seq = 0;
    queue = Heap.create ~cmp:compare_event;
    master_rng = Rng.create ~seed;
    executed = 0;
  }

let now t = t.clock

let rng t = t.master_rng

let schedule_at t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time
         t.clock);
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.queue { time; seq; action }

let schedule t ~delay action =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.clock +. delay) action

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
    t.clock <- ev.time;
    t.executed <- t.executed + 1;
    ev.action ();
    true

let run ?until t =
  let continue () =
    match Heap.peek t.queue with
    | None -> false
    | Some ev -> ( match until with None -> true | Some u -> ev.time <= u)
  in
  while continue () do
    ignore (step t : bool)
  done

let processed t = t.executed
