type 'msg envelope = {
  src : int;
  dst : int;
  sent_at : float;
  payload : 'msg;
}

type action = Deliver | Delay of float | Hold | Drop

type stats = { sent : int; delivered : int; dropped : int; held_ever : int }

type 'msg t = {
  engine : Engine.t;
  latency : Latency.t;
  rng : Rng.t;
  handlers : (int, 'msg envelope -> unit) Hashtbl.t;
  crashed : (int, unit) Hashtbl.t;
  mutable filter : ('msg envelope -> action) option;
  mutable forbidden : (src:int -> dst:int -> bool) list;
  held : 'msg envelope Queue.t; (* FIFO: original send order *)
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable n_held_ever : int;
}

let create engine ~latency =
  {
    engine;
    latency;
    rng = Rng.split (Engine.rng engine);
    handlers = Hashtbl.create 64;
    crashed = Hashtbl.create 8;
    filter = None;
    forbidden = [];
    held = Queue.create ();
    n_sent = 0;
    n_delivered = 0;
    n_dropped = 0;
    n_held_ever = 0;
  }

let register t ~node handler = Hashtbl.replace t.handlers node handler

let is_crashed t node = Hashtbl.mem t.crashed node

let crashed_count t = Hashtbl.length t.crashed

let crash t node = Hashtbl.replace t.crashed node ()

let drop t = t.n_dropped <- t.n_dropped + 1

let deliver_later t env ~delay =
  Engine.schedule t.engine ~delay (fun () ->
      if is_crashed t env.dst || is_crashed t env.src then drop t
      else begin
        match Hashtbl.find_opt t.handlers env.dst with
        | None ->
          invalid_arg
            (Printf.sprintf "Network: no handler registered for node %d"
               env.dst)
        | Some h ->
          t.n_delivered <- t.n_delivered + 1;
          h env
      end)

let send t ~src ~dst payload =
  List.iter
    (fun p ->
      if p ~src ~dst then
        invalid_arg
          (Printf.sprintf "Network: send %d->%d is forbidden by the model"
             src dst))
    t.forbidden;
  let env = { src; dst; sent_at = Engine.now t.engine; payload } in
  t.n_sent <- t.n_sent + 1;
  if is_crashed t src || is_crashed t dst then drop t
  else begin
    let action =
      match t.filter with None -> Deliver | Some f -> f env
    in
    match action with
    | Deliver ->
      let delay = Latency.sample t.latency t.rng ~src ~dst in
      deliver_later t env ~delay
    | Delay d -> deliver_later t env ~delay:d
    | Hold ->
      t.n_held_ever <- t.n_held_ever + 1;
      Queue.add env t.held
    | Drop -> drop t
  end

let set_filter t f = t.filter <- f

let forbid t p = t.forbidden <- p :: t.forbidden

let release_held t =
  Queue.iter (fun env -> deliver_later t env ~delay:0.0) t.held;
  Queue.clear t.held

let held_count t = Queue.length t.held

let stats t =
  {
    sent = t.n_sent;
    delivered = t.n_delivered;
    dropped = t.n_dropped;
    held_ever = t.n_held_ever;
  }
