open Registers

exception Unavailable of string

(* All deadlines, scan gates and backoff gates run on the monotonic
   clock: a wall time step must not fire or stall every timeout at
   once. *)
let now = Clock.now

(* One connection to one server, shared by every client of the mux.
   The process's event loop ({!Loop}) owns it outright, as it owns a
   server's connections: it alone dials, writes, reads and closes it,
   and stages the requests due on it. *)
type link = {
  index : int; (* server index: the authoritative reply label *)
  addr : Unix.sockaddr;
  (* Requests due and not yet written: every request due on the link at
     one wake-up joins it and leaves in that wake-up's one write, and a
     write the kernel cut short leaves the rest for the next. *)
  out : Outq.t;
  mutable fd : Unix.file_descr option; (* [None] while the link is down *)
  mutable connected : bool; (* [false] while a connect is in progress *)
  mutable next_attempt : float; (* monotonic gate for the next connect *)
  mutable attempts : int; (* consecutive failed connects *)
  mutable stream : Codec.Stream.t; (* this connection's reply decoder *)
  mutable epoch : int; (* bumped on every sever *)
  mutable want_write : bool; (* write interest registered *)
}

(* A frame waiting in the deadline heap: a request is sent on [link]
   when [due] passes, a reply the plan delays is decoded and routed
   then — unless the link severed in between ([epoch] moved on), which
   loses the frame with the link. *)
type frame =
  (* The round's one encoding, shared read-only by every copy staged on
     any link and by its re-broadcasts. *)
  | Request of Bytes.t
  (* Held encoded, a quarter of its decoded size. *)
  | Reply of { key : string; rt : int; client : int; body : string }

type staged = {
  due : float;
  seq : int; (* staging order: equal deadlines leave in it *)
  link : link;
  epoch : int;
  frame : frame;
}

(* A client's mailbox.  The loop alone touches it, but for the
   counters other threads read ([Atomic]) and the hand-off its outer
   {!exec} waits on. *)
type mailbox = {
  client : int;
  (* The operation.  [mb_busy] is set from the moment the loop opens
     its first round until it gives [mb_gate] the outcome, which
     releases the outer call: an [exec] on a busy handle comes from a
     continuation and only opens the next round. *)
  mb_gate : unit Loop.handoff;
  mutable mb_busy : bool;
  (* The open round.  [mb_rt = -1] means none: anything routed then is
     late.  [mb_key] is its register key: a reply whose key differs
     cannot count toward this quorum and is dropped, never delivered. *)
  mutable mb_rt : int;
  mutable mb_key : string;
  mb_from : bool array; (* per-server dedup for the open round *)
  mutable mb_replies : (int * Wire.rep) list; (* newest first *)
  mutable mb_n : int;
  mutable mb_k : (int * Wire.rep) list -> unit;
  mutable mb_attempt : int; (* re-broadcasts of the open round so far *)
  mutable mb_deadline : float;
  mb_late : int Atomic.t;
  mutable mb_next_rt : int;
  mb_completed : int Atomic.t;
  mb_retried : int Atomic.t;
  (* The encoder, and the open round's request encoded once: its
     bytes are shared read-only by every copy staged on any link, and
     re-sent as they are on a timeout.  The next round encodes into
     fresh bytes, so a copy still in the deadline heap keeps its own. *)
  mb_enc : Buffer.t;
  mutable mb_req : Bytes.t;
  (* Reply-leg salts: how many replies of (rt, server) have arrived,
     for the last [gens] round ids of this client. *)
  arr_rt : int array;
  arr_n : int array;
}

(* Everything here but [dropped] is the loop's alone. *)
type t = {
  links : link array;
  quorum : int;
  rt_timeout : float;
  max_rt_retries : int;
  faults : Faults.t option;
  routes : (int, mailbox) Hashtbl.t;
  (* Replies that matched no open round trip at all: unknown client
     (handle released, or a peer inventing ids) or a key mismatch on the
     open round.  Distinct from [mb_late] — a late reply belongs to a
     round this client really ran; a dropped one could never have been
     delivered anywhere. *)
  dropped : int Atomic.t;
  (* Every request, and every reply the plan delays, in deadline
     order. *)
  staged : staged Simulation.Heap.t;
  mutable staged_seq : int;
  (* The next timeout scan, the ticker that runs this mux on the loop,
     and whether {!shutdown} took it off. *)
  mutable next_scan : float;
  mutable ticker : Loop.ticker option;
  mutable closed : bool;
}

type handle = { mux : t; mb : mailbox }

(* Round ids whose reply arrivals a mailbox remembers (a power of 2). *)
let gens = 8

(* A link whose out-queue grew past this (a server that stopped
   reading) drops due requests until it drains: a lossy link, which the
   round-trip retries cover, instead of unbounded memory. *)
let out_limit = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Connections (loop thread)                                           *)
(* ------------------------------------------------------------------ *)

(* Reconnects back off exponentially: the gate doubles from
   [connect_backoff] up to a cap of 64× and then keeps probing at that
   interval, so a server that stays down past any fixed budget is still
   redialed once {!Cluster.restart} brings it back, while a dead one
   costs one refused connect per ~1.3 s.  The frames queued for a link
   that cannot be redialed yet are lost, as on a dead link. *)
let connect_backoff = 0.02

let backoff l =
  l.attempts <- l.attempts + 1;
  l.next_attempt <-
    now () +. (connect_backoff *. float_of_int (1 lsl min l.attempts 6));
  Outq.clear l.out

let set_write l fd w =
  if l.want_write <> w then begin
    l.want_write <- w;
    Loop.set fd ~read:true ~write:w
  end

(* Close the link: what was queued on it and every frame staged on it
   (moving [epoch] on) are lost with it.  A link that severs is
   redialed as soon as something is sent on it again. *)
let sever l =
  match l.fd with
  | None -> ()
  | Some fd ->
    l.fd <- None;
    l.connected <- false;
    Outq.clear l.out;
    l.epoch <- l.epoch + 1;
    l.want_write <- false;
    Loop.unwatch fd;
    try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)
(* ------------------------------------------------------------------ *)

let push t ~due l frame =
  t.staged_seq <- t.staged_seq + 1;
  Simulation.Heap.push t.staged
    { due; seq = t.staged_seq; link = l; epoch = l.epoch; frame }

(* Stage the open round's request for every server that has not
   answered it yet.  A copy is due at the fan-out's one clock read, or,
   under a plan, when its [To_server] rules say, salted by the attempt
   number so a frame dropped now draws afresh on the next
   re-broadcast.  Every copy waits in the deadline heap, so copies due
   together leave in one write per link. *)
let broadcast t mb =
  let t0 = now () in
  let frame = Request mb.mb_req in
  Array.iteri
    (fun i l ->
      if not mb.mb_from.(i) then
        match t.faults with
        | None -> push t ~due:t0 l frame
        | Some plan ->
          List.iter
            (fun after -> push t ~due:(t0 +. after) l frame)
            (Faults.deliveries plan ~dir:Faults.To_server ~server:i
               ~client:mb.client ~rt:mb.mb_rt ~salt:mb.mb_attempt))
    t.links

(* ------------------------------------------------------------------ *)
(* Rounds and operations                                               *)
(* ------------------------------------------------------------------ *)

(* End the busy operation: close its round and release the outer
   {!exec} with [outcome]. *)
let finish mb outcome =
  mb.mb_rt <- -1;
  mb.mb_deadline <- infinity;
  mb.mb_replies <- [];
  mb.mb_busy <- false;
  Loop.give mb.mb_gate outcome

(* Open round [mb_next_rt] for [req] on [key] and send it. *)
let open_round t mb ~key req k =
  let rt = mb.mb_next_rt in
  mb.mb_next_rt <- rt + 1;
  mb.mb_rt <- rt;
  mb.mb_key <- key;
  Array.fill mb.mb_from 0 (Array.length mb.mb_from) false;
  mb.mb_replies <- [];
  mb.mb_n <- 0;
  mb.mb_k <- k;
  mb.mb_attempt <- 0;
  mb.mb_deadline <- now () +. t.rt_timeout;
  Codec.encode_into mb.mb_enc
    (Codec.Keyed_request { key; rt; client = mb.client; req });
  mb.mb_req <- Buffer.to_bytes mb.mb_enc;
  broadcast t mb

let unavailable mb why =
  finish mb (Error (Unavailable why, Printexc.get_callstack 0))

(* An outer {!exec}'s closure, on the loop: open the operation's first
   round, or end it at once on a shut-down mux, a released handle (no
   reply or timeout reaches it) or a request that cannot be encoded. *)
let start t mb ~key req k =
  mb.mb_busy <- true;
  if t.closed then unavailable mb "mux shut down"
  else
    match Hashtbl.find_opt t.routes mb.client with
    | Some m when m == mb -> (
      match open_round t mb ~key req k with
      | () -> ()
      | exception e -> finish mb (Error (e, Printexc.get_raw_backtrace ())))
    | Some _ | None -> unavailable mb "handle released"

let exec ~key h req k =
  let t = h.mux and mb = h.mb in
  if Loop.on_loop () then
    if mb.mb_busy then
      (* From a continuation: open the next round and return; the loop
         runs [k] when that round's quorum is in. *)
      open_round t mb ~key req k
    else
      invalid_arg
        "Mux.exec: an operation started on the event loop's thread (from \
         a continuation?) would wait for itself"
  else Loop.await ~who:"Mux.exec" mb.mb_gate (fun () -> start t mb ~key req k)

(* Route one reply to [mb].  [body] is decoded only if the reply counts
   toward the open round: a late or duplicate reply is counted without
   paying for its decode.  The reply that completes the quorum runs the
   round's continuation here, on the loop; the operation is over once
   the continuation returns without opening another round, or raises.
   Returns [false] on a corrupt body. *)
let route t mb ~server_index ~rt ~key body =
  if mb.mb_rt = rt && rt >= 0 && (key <> mb.mb_key || not mb.mb_from.(server_index))
  then begin
    if key <> mb.mb_key then begin
      (* Same round-trip id, wrong register: a stale or corrupt key
         route.  Counting it toward the quorum would hand the round
         another key's value — drop it instead, and never touch the
         dedup/reply state, so the real replies still complete the
         round (no wedge). *)
      Atomic.incr t.dropped;
      true
    end
    else
      match Codec.decode_body body with
      | Codec.Keyed_reply { rep; _ } ->
        mb.mb_from.(server_index) <- true;
        mb.mb_replies <- (server_index, rep) :: mb.mb_replies;
        mb.mb_n <- mb.mb_n + 1;
        if mb.mb_n >= t.quorum then begin
          let k = mb.mb_k and replies = List.rev mb.mb_replies in
          mb.mb_rt <- -1;
          mb.mb_deadline <- infinity;
          mb.mb_replies <- [];
          Atomic.incr mb.mb_completed;
          match k replies with
          | () -> if mb.mb_rt < 0 then finish mb (Ok ())
          | exception e -> finish mb (Error (e, Printexc.get_raw_backtrace ()))
        end;
        true
      | Codec.Keyed_request _ | (exception Codec.Decode_error _) -> false
  end
  else begin
    Atomic.incr mb.mb_late;
    true
  end

(* The arrival index of a reply for (rt, server) — its [From_server]
   salt.  It counts this client's own replies only, so the plan's
   decisions do not depend on how clients interleave on a shared
   connection.  A reply more than [gens] rounds behind its client's
   newest draws as a first arrival. *)
let arrival t mb ~server ~rt =
  let s = Array.length t.links in
  let g = rt land (gens - 1) in
  if mb.arr_rt.(g) < rt then begin
    mb.arr_rt.(g) <- rt;
    Array.fill mb.arr_n (g * s) s 0
  end;
  if mb.arr_rt.(g) = rt then begin
    let i = (g * s) + server in
    let n = mb.arr_n.(i) in
    mb.arr_n.(i) <- n + 1;
    n
  end
  else 0

(* Route a reply read off link [l] to its client's mailbox [mb], or
   count it dropped when no client owns it (a released handle, or a
   peer inventing ids).  The link's own index is the authoritative
   server label, not the peer-reported one.  A corrupt body severs the
   link: returns [false] once the link is gone. *)
let deliver t l mb ~key ~rt body =
  let ok =
    match mb with
    | Some mb -> route t mb ~server_index:l.index ~rt ~key body
    | None ->
      Atomic.incr t.dropped;
      true
  in
  if not ok then sever l;
  ok

(* One reply body read off link [l] at [t_read].  Under a plan the
   reply leg decides its fate here, from the frame's header alone —
   lost, held until a deadline, or delivered twice.  A request frame
   (servers never send one) or a corrupt header severs the link. *)
let receive t l ~t_read body =
  match Codec.reply_route body with
  | Some (key, rt, client) -> (
    let mb = Hashtbl.find_opt t.routes client in
    match (t.faults, mb) with
    | None, _ | _, None -> deliver t l mb ~key ~rt body
    | Some plan, Some m ->
      List.fold_left
        (fun up after ->
          if not up then false
          else if after > 0.0 then begin
            push t ~due:(t_read +. after) l (Reply { key; rt; client; body });
            true
          end
          else deliver t l mb ~key ~rt body)
        true
        (Faults.deliveries plan ~dir:Faults.From_server ~server:l.index ~client
           ~rt ~salt:(arrival t m ~server:l.index ~rt)))
  | None | (exception Codec.Decode_error _) ->
    sever l;
    false

(* Pop every staged frame due by [t_now], in deadline order, and act on
   it.  A due request joins its link's out-queue for this wake-up's one
   write per link, unless the queue is past [out_limit]; a due reply is
   routed.  Frames whose link severed since they were staged are
   dropped. *)
let rec release_due t t_now =
  match Simulation.Heap.peek t.staged with
  | Some e when e.due <= t_now ->
    ignore (Simulation.Heap.pop t.staged);
    let l = e.link in
    (if l.epoch = e.epoch then
       match e.frame with
       | Request payload ->
         if Outq.length l.out <= out_limit then
           Outq.add_subbytes l.out payload 0 (Bytes.length payload)
       | Reply { key; rt; client; body } ->
         ignore (deliver t l (Hashtbl.find_opt t.routes client) ~key ~rt body));
    release_due t t_now
  | Some _ | None -> ()

(* Readable: drain the socket to EAGAIN through the link's decoder, then
   handle its complete frames.  The clock is read once per batch, so
   replies held by equal amounts share a deadline and route together.
   EOF, an error, a corrupt stream or a request frame (servers never
   send one) severs the link. *)
let on_readable t l fd =
  let open_ = Codec.Stream.fill l.stream fd in
  let t_read = match t.faults with None -> 0.0 | Some _ -> now () in
  let rec drain () =
    match Codec.Stream.next_body l.stream with
    | Some body -> if receive t l ~t_read body then drain ()
    | None -> if not open_ then sever l
    | exception Codec.Decode_error _ -> sever l
  in
  drain ()

(* The socket of a connecting link turned writable: the connect is
   done, one way or the other. *)
let finish_connect l fd =
  match Unix.getsockopt_error fd with
  | None ->
    l.connected <- true;
    l.attempts <- 0
  | Some _ | (exception Unix.Unix_error _) ->
    sever l;
    backoff l

(* One ready event on link [l]'s socket [fd] — unless [fd] is no longer
   the link's, closed and its number reused since the event was
   reported. *)
let on_link t l fd ~readable ~writable =
  match l.fd with
  | Some own when own == fd ->
    if writable && not l.connected then finish_connect l fd;
    (* [finish_connect] may have severed the link. *)
    if readable && l.fd <> None then on_readable t l fd
  | Some _ | None -> ()

(* A non-blocking dial: a TCP connect that cannot complete at once
   leaves the link connecting, with write interest on; the loop
   finishes it when the socket turns writable.  A Unix-domain connect
   never completes later ([EAGAIN] there is a full backlog).  Every
   failure — [socket]'s own included (EMFILE) — backs off. *)
let dial t l =
  let domain = Unix.domain_of_sockaddr l.addr in
  let inet = domain <> Unix.PF_UNIX in
  match Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> backoff l
  | fd -> (
    let up connected =
      l.fd <- Some fd;
      l.connected <- connected;
      if connected then l.attempts <- 0;
      l.stream <- Codec.Stream.create ();
      (* Write interest until the first flush: it finishes a pending
         connect, and flushes what was queued while the link was
         down. *)
      l.want_write <- true;
      Loop.watch fd ~want_write:true (on_link t l fd)
    in
    match
      Netio.set_nonblock fd;
      if inet then Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd l.addr
    with
    | () -> up true
    | exception
        Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR | Unix.EAGAIN), _, _)
      when inet ->
      up false
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      backoff l)

(* The loop's write pass over one link: write what is queued — or dial
   a link that is down and has something to send, or drop it if the
   link may not be redialed yet. *)
let service t l t_now =
  match l.fd with
  | None ->
    if not (Outq.is_empty l.out) then
      if t_now < l.next_attempt then Outq.clear l.out
      else dial t l
  | Some fd when l.connected -> (
    match Outq.flush l.out fd with
    | true -> set_write l fd false
    | false -> set_write l fd true
    | exception Unix.Unix_error _ -> sever l)
  | Some _ -> ()

(* Re-broadcast every round past its deadline to the servers still
   missing, or give the operation up with [Unavailable] once its retry
   budget is spent. *)
let scan_timeouts t t_now =
  Hashtbl.iter
    (fun _ mb ->
      if mb.mb_rt >= 0 && t_now >= mb.mb_deadline then
        if mb.mb_attempt >= t.max_rt_retries then
          unavailable mb
            (Printf.sprintf
               "client %d: %d/%d replies after %d attempts of %.3fs" mb.client
               mb.mb_n t.quorum (mb.mb_attempt + 1) t.rt_timeout)
        else begin
          mb.mb_attempt <- mb.mb_attempt + 1;
          Atomic.incr mb.mb_retried;
          mb.mb_deadline <- t_now +. t.rt_timeout;
          broadcast t mb
        end)
    t.routes

(* Round timeouts are checked at this cadence; normal completions never
   wait for it. *)
let tick_period t = Float.max 0.005 (Float.min 0.05 (t.rt_timeout /. 4.0))

(* The mux's turn at the start of each loop iteration: release what is
   due, re-broadcast or give up the rounds past their deadline, and
   write each link once. *)
let step t t_now =
  release_due t t_now;
  if t_now >= t.next_scan then begin
    t.next_scan <- t_now +. tick_period t;
    scan_timeouts t t_now
  end;
  for i = 0 to Array.length t.links - 1 do
    service t t.links.(i) t_now
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(rt_timeout = 1.0) ?(max_rt_retries = 3) ?faults ~servers ~quorum
    () =
  let n = Array.length servers in
  if quorum <= 0 || quorum > n then
    invalid_arg "Mux.create: quorum out of range";
  let t =
    {
      links =
        Array.mapi
          (fun index addr ->
            {
              index;
              addr;
              out = Outq.create 4096;
              fd = None;
              connected = false;
              next_attempt = 0.0;
              attempts = 0;
              stream = Codec.Stream.create ();
              epoch = 0;
              want_write = false;
            })
          servers;
      quorum;
      rt_timeout;
      max_rt_retries;
      faults;
      routes = Hashtbl.create 16;
      dropped = Atomic.make 0;
      staged =
        Simulation.Heap.create ~cmp:(fun a b ->
            match Float.compare a.due b.due with
            | 0 -> Int.compare a.seq b.seq
            | c -> c);
      staged_seq = 0;
      next_scan = 0.0;
      ticker = None;
      closed = false;
    }
  in
  (* Submitted before any operation on the mux, so the loop runs it
     first. *)
  Loop.submit (fun () ->
      let tk =
        {
          Loop.step = step t;
          deadline =
            (fun () ->
              match Simulation.Heap.peek t.staged with
              | Some e -> Float.min t.next_scan e.due
              | None -> t.next_scan);
        }
      in
      t.ticker <- Some tk;
      Loop.add_ticker tk;
      (* Optimistic first dial; a failure leaves the link in backoff. *)
      Array.iter (dial t) t.links);
  t

let client t ~client =
  let s = Array.length t.links in
  let mb =
    {
      client;
      mb_gate = Loop.handoff ();
      mb_busy = false;
      mb_rt = -1;
      mb_key = "";
      mb_from = Array.make s false;
      mb_replies = [];
      mb_n = 0;
      mb_k = ignore;
      mb_attempt = 0;
      mb_deadline = infinity;
      mb_late = Atomic.make 0;
      mb_next_rt = 0;
      mb_completed = Atomic.make 0;
      mb_retried = Atomic.make 0;
      mb_enc = Buffer.create 256;
      mb_req = Bytes.empty;
      arr_rt = Array.make gens (-1);
      arr_n = Array.make (gens * s) 0;
    }
  in
  (* Submitted before the handle's first operation, so its route is in
     place when the loop opens that operation's round. *)
  Loop.submit (fun () -> Hashtbl.replace t.routes client mb);
  { mux = t; mb }

let release h =
  let t = h.mux and mb = h.mb in
  Loop.submit (fun () ->
      match Hashtbl.find_opt t.routes mb.client with
      | Some m when m == mb ->
        Hashtbl.remove t.routes mb.client;
        if mb.mb_busy then unavailable mb "handle released"
      | Some _ | None -> ())

(* On the loop: sever every link and fail an operation in progress
   instead of leaving its caller to hang; an operation submitted later
   fails the same way ({!start}).  Every step is idempotent. *)
let shutdown t =
  Loop.call ~who:"Mux.shutdown" (fun () ->
      t.closed <- true;
      Option.iter Loop.remove_ticker t.ticker;
      Array.iter sever t.links;
      Hashtbl.iter
        (fun _ mb ->
          if mb.mb_busy then unavailable mb "mux shut down")
        t.routes)

let rounds_completed h = Atomic.get h.mb.mb_completed

let late_replies h = Atomic.get h.mb.mb_late

let retries h = Atomic.get h.mb.mb_retried

let dropped_replies t = Atomic.get t.dropped
