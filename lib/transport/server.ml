open Registers

(* A non-blocking reactor replaces the old thread-per-connection design:
   the server's listen socket and every connection are watched by the
   process's one event loop ({!Loop}), and that loop's thread is the
   only one that ever touches them or the keyspace — a server has no
   lock at all.  Other threads read the keyspace through the loop
   ({!snapshot}). *)

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
  addr : Unix.sockaddr; (* where it listens, its port resolved *)
  keyspace : Keyspace.t; (* every register this server hosts *)
  conns : (int, conn) Hashtbl.t; (* loop-private, as are the two below *)
  frame_buf : Buffer.t;
  mutable stopped : bool;
  live_conns : int Atomic.t;
}

(* Backpressure ceiling for one connection's out-queue.  A peer that
   stops reading (or reads far slower than it asks) would otherwise grow
   its queue without bound — the quorum keeps completing on the other
   replicas, so nothing upstream ever slows down for it.  Above the
   ceiling the server stops decoding that connection's requests (they
   wait in its stream) and drops its read interest, so the kernel's
   buffers push back on the peer; the first flush that brings the queue
   under the ceiling resumes it.  One reply is the most the queue can
   overshoot by.  Nothing is severed: a peer that reads its replies gets
   all of them. *)
let outq_limit = 4 * 1024 * 1024

let addr t = t.addr

let keyspace t = t.keyspace

let snapshot t =
  Loop.call ~who:"Server.snapshot" (fun () -> Keyspace.save t.keyspace)

let connection_count t = Atomic.get t.live_conns

(* [c] is still the connection the server knows by its fd number (not
   a closed one whose number a later accept reused). *)
let alive t c =
  match Hashtbl.find_opt t.conns c.ckey with
  | Some c' -> c' == c
  | None -> false

(* Read interest is off while the out-queue is over the ceiling. *)
let set_interest c =
  Loop.set c.cfd ~read:(Outq.length c.outq <= outq_limit) ~write:c.want_write

let close_conn t c =
  if alive t c then begin
    Hashtbl.remove t.conns c.ckey;
    (* Unregister before close: the fd number is reusable the instant
       close returns, and the poller must never see it secondhand. *)
    Loop.unwatch c.cfd;
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
      set_interest c
    end
  | false ->
    if not c.want_write then begin
      c.want_write <- true;
      set_interest c
    end
  | exception Unix.Unix_error _ -> close_conn t c

(* Answer the requests waiting in [c]'s stream while its out-queue is
   at most [outq_limit]; above it, drop read interest and leave the rest
   in the stream until a flush drains the queue (the writable path calls
   back here).  Returns [true] when the stream is corrupt: the caller
   severs. *)
let rec serve t c =
  if not (alive t c) then false
  else if Outq.length c.outq > outq_limit then begin
    set_interest c;
    false
  end
  else answer t c ~added:false

(* Handle each request as the stream yields it — on its key's replica,
   the model's one-message-at-a-time server, per register — and queue
   its reply; [added] is whether a reply is queued since the last
   flush.  The queue is flushed once, when the stream runs dry or the
   queue passes the ceiling ([serve] then decides whether to read on).
   The server realises no fault plan: both legs of a link are shaped by
   the client's mux, so a reply leaves at that flush.  A decode error or
   a reply frame (only servers speak replies) reports a corrupt stream,
   after the requests decoded before it are answered. *)
and answer t c ~added =
  match Codec.Stream.next c.stream with
  | Some (Codec.Keyed_request { key; rt; client; req }) ->
    let rep = Keyspace.handle t.keyspace ~key ~client req in
    Codec.encode_into t.frame_buf
      (Codec.Keyed_reply { key; rt; client; server = t.id; rep });
    Outq.add_buffer c.outq t.frame_buf;
    if Outq.length c.outq > outq_limit then begin
      flush t c;
      serve t c
    end
    else answer t c ~added:true
  | None ->
    if added then flush t c;
    false
  | Some (Codec.Keyed_reply _) | (exception Codec.Decode_error _) ->
    if added then flush t c;
    true

(* Readable event: drain the socket to EAGAIN through the incremental
   decoder, then answer its complete frames.  Frames decoded before an
   error still get answers; the error still severs. *)
let handle_readable t c =
  let open_ = Codec.Stream.fill c.stream c.cfd in
  if serve t c || not open_ then close_conn t c

(* One ready event on connection [c]. *)
let on_conn t c ~readable ~writable =
  if writable && alive t c then begin
    flush t c;
    (* Once the queue is back under the ceiling, restore read interest
       and answer what waited meanwhile. *)
    if alive t c then begin
      set_interest c;
      if serve t c then close_conn t c
    end
  end;
  (* The flush may have severed the connection. *)
  if readable && alive t c then handle_readable t c

(* Any unexpected accept failure (e.g. EMFILE) just ends this round —
   the level-triggered poller re-reports the backlog next time. *)
let do_accept t =
  let more = ref true in
  while !more do
    match Netio.accept_nb t.listen_fd with
    | None -> more := false
    | exception Unix.Unix_error _ -> more := false
    | Some fd ->
      (try
         if Unix.domain_of_sockaddr t.addr <> Unix.PF_UNIX then
           Unix.setsockopt fd Unix.TCP_NODELAY true
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
      Loop.watch fd ~want_write:false (on_conn t c)
  done

let start ?(addr = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ?(id = 0)
    ?(keyspace = Keyspace.create ()) () =
  (match addr with
   | Unix.ADDR_INET (_, p) when p < 0 || p > 65535 ->
     invalid_arg (Printf.sprintf "Server.start: port %d is outside 0..65535" p)
   | Unix.ADDR_INET _ | Unix.ADDR_UNIX _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (* A server accepts thousands of near-simultaneous connects (the
     high-C sweep opens them in a burst): give the backlog headroom. *)
  Unix.listen fd 1024;
  Netio.set_nonblock fd;
  let t =
    {
      id;
      listen_fd = fd;
      addr = Unix.getsockname fd;
      keyspace;
      conns = Hashtbl.create 64;
      frame_buf = Buffer.create 512;
      stopped = false;
      live_conns = Atomic.make 0;
    }
  in
  (* Connects that arrive before the loop watches the socket wait in
     its backlog. *)
  Loop.submit (fun () ->
      Loop.watch fd ~want_write:false (fun ~readable ~writable:_ ->
          if readable then do_accept t));
  t

(* On the loop: close the listen socket and every connection (clients
   see the crash as EOF/reset). *)
let stop t =
  Loop.call ~who:"Server.stop" (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        Loop.unwatch t.listen_fd;
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        List.iter (close_conn t) remaining
      end)
