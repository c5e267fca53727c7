open Registers

(* A non-blocking reactor replaces the old thread-per-connection design:
   one event loop over an epoll/poll {!Netio.Poller}, on one thread,
   owns every connection and is the only thread that ever touches them
   — connection state needs no locks at all.  The keyspace stays behind
   [replica_lock] because other threads read it too (inspection,
   recovery restarts).  Every reactor thread of the process lives on
   one server domain (below), so serving a request never waits for the
   runtime lock of the domain the clients run on. *)

type conn = {
  cfd : Unix.file_descr;
  ckey : int; (* fd number: the connection-table key *)
  stream : Codec.Stream.t;
  outq : Outq.t;
  mutable want_write : bool; (* write interest registered *)
}

type t = {
  id : int;
  listen_fd : Unix.file_descr;
  port : int;
  keyspace : Keyspace.t; (* every register this server hosts *)
  replica_lock : Mutex.t; (* guards [keyspace] *)
  poller : Netio.Poller.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr; (* [stop] wakes the reactor through it *)
  conns : (int, conn) Hashtbl.t; (* reactor-thread private *)
  frame_buf : Buffer.t;
  stopping : bool Atomic.t;
  live_conns : int Atomic.t;
  closed : Semaphore.Binary.t; (* released once the reactor has exited *)
}

(* The idle tick: an upper bound on how long the reactor sleeps when
   nothing is ready, and therefore on [stop]'s worst-case latency if a
   wakeup byte were ever lost. *)
let tick = 0.2

(* Backpressure ceiling for one connection's out-queue.  A peer that
   stops reading (or reads far slower than it asks) would otherwise grow
   its queue without bound — the quorum keeps completing on the other
   replicas, so nothing upstream ever slows down for it.  Above the
   ceiling the reactor stops decoding that connection's requests (they
   wait in its stream) and drops its read interest, so the kernel's
   buffers push back on the peer; the first flush that brings the queue
   under the ceiling resumes it.  One batch of at most [max_batch]
   replies is the most the queue can overshoot by.  Nothing is severed:
   a peer that reads its replies gets all of them. *)
let outq_limit = 4 * 1024 * 1024

let max_batch = 256

let port t = t.port

let keyspace t = t.keyspace

let snapshot t =
  Mutex.protect t.replica_lock (fun () -> Keyspace.save t.keyspace)

let connection_count t = Atomic.get t.live_conns

(* [c] is still the connection the reactor knows by its fd number (not
   a closed one whose number a later accept reused). *)
let alive t c =
  match Hashtbl.find_opt t.conns c.ckey with
  | Some c' -> c' == c
  | None -> false

(* Read interest is off while the out-queue is over the ceiling. *)
let set_interest t c =
  Netio.Poller.set t.poller c.cfd
    ~read:(Outq.length c.outq <= outq_limit)
    ~write:c.want_write

let close_conn t c =
  if alive t c then begin
    Hashtbl.remove t.conns c.ckey;
    (* Unregister before close: the fd number is reusable the instant
       close returns, and the poller must never see it secondhand. *)
    Netio.Poller.remove t.poller c.cfd;
    (try Unix.close c.cfd with Unix.Unix_error _ -> ());
    Atomic.decr t.live_conns
  end

(* Flush the out-queue: write until drained or the kernel pushes back.
   EAGAIN registers write interest — the poller re-invokes us when the
   peer drains its side — and a drained queue clears it, so a slow
   reader costs exactly one interest toggle, never a blocked thread. *)
let flush t c =
  match Outq.flush c.outq c.cfd with
  | true ->
    if c.want_write then begin
      c.want_write <- false;
      set_interest t c
    end
  | false ->
    if not c.want_write then begin
      c.want_write <- true;
      set_interest t c
    end
  | exception Unix.Unix_error _ -> close_conn t c

(* Run one wakeup's worth of decoded requests through the keyspace under
   a single lock acquisition (the batch fast path for multiplexed client
   connections) and coalesce the batch's replies into one flush.  Each
   request dispatches to its key's replica — the model's
   one-message-at-a-time server, per register.  The server realises no
   fault plan: both legs of a link are shaped by the client's mux, so a
   reply leaves the moment its batch is handled. *)
let process_requests t c requests =
  let reps =
    Mutex.protect t.replica_lock (fun () ->
        List.map
          (fun (rt, client, key, req) ->
            (rt, client, key, Keyspace.handle t.keyspace ~key ~client req))
          requests)
  in
  List.iter
    (fun (rt, client, key, rep) ->
      Codec.encode_into t.frame_buf
        (Codec.Keyed_reply { key; rt; client; server = t.id; rep });
      Outq.add_buffer c.outq t.frame_buf)
    reps;
  flush t c

(* Decode up to [max_batch] requests off [c]'s stream.  The flag reports
   a corrupt stream — a decode error, or a reply frame (only servers
   speak replies) — after the requests decoded before it. *)
let next_batch c =
  let rec go n acc =
    if n = max_batch then (List.rev acc, false)
    else
      match Codec.Stream.next c.stream with
      | None -> (List.rev acc, false)
      | Some (Codec.Keyed_reply _) -> (List.rev acc, true)
      | Some (Codec.Keyed_request { key; rt; client; req }) ->
        go (n + 1) ((rt, client, key, req) :: acc)
      | exception Codec.Decode_error _ -> (List.rev acc, true)
  in
  go 0 []

(* Answer the requests waiting in [c]'s stream, batch by batch, while
   its out-queue is at most [outq_limit]; above it, drop read interest
   and leave the rest in the stream until a flush drains the queue (the
   writable path calls back here).  Returns [true] when the stream is
   corrupt: the caller severs. *)
let rec serve t c =
  if not (alive t c) then false
  else if Outq.length c.outq > outq_limit then begin
    set_interest t c;
    false
  end
  else
    match next_batch c with
    | [], bad -> bad
    | requests, bad ->
      process_requests t c requests;
      bad || serve t c

(* Readable event: drain the socket to EAGAIN through the incremental
   decoder, then answer its complete frames.  Frames decoded before an
   error still get answers; the error still severs. *)
let handle_readable t c =
  let open_ = Codec.Stream.fill c.stream c.cfd in
  if serve t c || not open_ then close_conn t c

(* Any unexpected accept failure (e.g. EMFILE) just ends this round —
   the level-triggered poller re-reports the backlog next tick. *)
let do_accept t =
  let more = ref true in
  while !more do
    match Netio.accept_nb t.listen_fd with
    | None -> more := false
    | exception Unix.Unix_error _ -> more := false
    | Some fd ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Netio.set_nonblock fd;
      Atomic.incr t.live_conns;
      let c =
        {
          cfd = fd;
          ckey = Netio.fd_int fd;
          stream = Codec.Stream.create ();
          outq = Outq.create 4096;
          want_write = false;
        }
      in
      Hashtbl.replace t.conns c.ckey c;
      Netio.Poller.add t.poller fd ~want_write:false
  done

let reactor_loop t =
  let wake_key = Netio.fd_int t.wake_r in
  let listen_key = Netio.fd_int t.listen_fd in
  while not (Atomic.get t.stopping) do
    ignore
      (Netio.Poller.wait t.poller ~timeout:tick
         (fun fd ~readable ~writable ->
           let k = Netio.fd_int fd in
           if k = wake_key then begin
             if readable then Netio.drain_wake t.wake_r
           end
           else if k = listen_key then begin
             if readable && not (Atomic.get t.stopping) then do_accept t
           end
           else
             match Hashtbl.find_opt t.conns k with
             | None -> () (* closed earlier in this same dispatch round *)
             | Some c ->
               if writable then begin
                 flush t c;
                 (* Once the queue is back under the ceiling, restore
                    read interest and answer what waited meanwhile. *)
                 if alive t c then begin
                   set_interest t c;
                   if serve t c then close_conn t c
                 end
               end;
               (* The flush may have severed the connection. *)
               if readable && alive t c then handle_readable t c))
  done;
  (* Teardown on the reactor thread: close every connection (clients
     see the crash as EOF/reset). *)
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (close_conn t) remaining

let run_reactor t =
  Fun.protect
    ~finally:(fun () -> Semaphore.Binary.release t.closed)
    (fun () -> reactor_loop t)

(* The server domain.  The first [start] spawns it; its one thread then
   waits for servers to arrive and starts each one's reactor thread, so
   every reactor of the process — whatever the number of servers,
   groups or restarts — shares that domain and its runtime lock.  The
   domain is never joined: it lives as long as the process. *)
let domain_lock = Mutex.create ()

let domain_wake = Condition.create ()

let arrivals : t Queue.t = Queue.create () (* under [domain_lock] *)

let domain_spawned = ref false (* under [domain_lock] *)

let rec server_domain () =
  let t =
    Mutex.protect domain_lock (fun () ->
        while Queue.is_empty arrivals do
          Condition.wait domain_wake domain_lock
        done;
        Queue.pop arrivals)
  in
  ignore (Thread.create run_reactor t);
  server_domain ()

let launch t =
  let first =
    Mutex.protect domain_lock (fun () ->
        Queue.push t arrivals;
        Condition.signal domain_wake;
        let first = not !domain_spawned in
        domain_spawned := true;
        first)
  in
  if first then ignore (Domain.spawn server_domain)

let start ?(host = "127.0.0.1") ?(port = 0) ?(id = 0)
    ?(keyspace = Keyspace.create ()) () =
  if port < 0 || port > 65535 then
    invalid_arg (Printf.sprintf "Server.start: port %d is outside 0..65535" port);
  let inet =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      invalid_arg
        (Printf.sprintf "Server.start: host %S is not a numeric address" host)
  in
  Netio.ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (inet, port) in
  (try Unix.bind fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (* A reactor accepts thousands of near-simultaneous connects (the
     high-C sweep opens them in a burst): give the backlog headroom. *)
  Unix.listen fd 1024;
  Netio.set_nonblock fd;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let wake_r, wake_w = Unix.pipe () in
  Netio.set_nonblock wake_r;
  Netio.set_nonblock wake_w;
  let poller = Netio.Poller.create () in
  Netio.Poller.add poller wake_r ~want_write:false;
  Netio.Poller.add poller fd ~want_write:false;
  let t =
    {
      id;
      listen_fd = fd;
      port;
      keyspace;
      replica_lock = Mutex.create ();
      poller;
      wake_r;
      wake_w;
      conns = Hashtbl.create 64;
      frame_buf = Buffer.create 512;
      stopping = Atomic.make false;
      live_conns = Atomic.make 0;
      closed = Semaphore.Binary.make false;
    }
  in
  launch t;
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Netio.notify t.wake_w;
    Semaphore.Binary.acquire t.closed;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Netio.Poller.close t.poller;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ())
  end
