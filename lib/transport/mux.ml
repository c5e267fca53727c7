open Registers

exception Unavailable of string

(* All deadlines, scan gates and backoff gates run on the monotonic
   clock: a wall time step must not fire or stall every timeout at
   once. *)
let now = Clock.now

(* One TCP connection to one server, shared by every client of the mux.
   The process's event loop ({!Loop}) owns it outright, as it owns a
   server's connections: it alone dials, writes, reads and closes it.
   Client threads only stage requests for it in the deadline heap,
   reading [epoch] as they do. *)
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
  epoch : int Atomic.t; (* bumped on every sever *)
  mutable want_write : bool; (* write interest registered *)
}

(* A frame waiting in the deadline heap: a request is sent on [link]
   when [due] passes, a reply the plan delays is decoded and routed
   then — unless the link severed in between ([epoch] moved on), which
   loses the frame with the link. *)
type frame =
  (* The fan-out's one payload copy, shared read-only by every link it
     is staged on. *)
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

type mailbox = {
  client : int;
  mb_lock : Mutex.t;
  mb_cond : Condition.t;
  (* The operation.  [mb_busy] is set by the outer {!exec} until it
     returns: an [exec] on a busy handle comes from a continuation and
     only opens the next round.  [mb_done] releases the outer call,
     with [mb_exn] to re-raise on its thread. *)
  mutable mb_busy : bool;
  mutable mb_done : bool;
  mutable mb_exn : (exn * Printexc.raw_backtrace) option;
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
  mutable mb_late : int;
  mutable mb_next_rt : int;
  mutable mb_completed : int;
  mutable mb_retried : int;
  (* The open round's request, encoded once: the same bytes go to every
     link and are re-sent as they are on a timeout. *)
  mb_enc : Buffer.t;
  mutable mb_out : Bytes.t;
  mutable mb_len : int;
  (* Reply-leg salts, loop-private: how many replies of (rt, server)
     have arrived, for the last [gens] round ids of this client. *)
  arr_rt : int array;
  arr_n : int array;
}

type t = {
  links : link array;
  quorum : int;
  rt_timeout : float;
  max_rt_retries : int;
  faults : Faults.t option;
  routes : (int, mailbox) Hashtbl.t;
  routes_lock : Mutex.t;
  (* Replies that matched no open round trip at all: unknown client
     (handle released, or a peer inventing ids) or a key mismatch on the
     open round.  Distinct from [mb_late] — a late reply belongs to a
     round this client really ran; a dropped one could never have been
     delivered anywhere. *)
  dropped : int Atomic.t;
  (* Every request, and every reply the plan delays, in deadline order:
     client threads push a fan-out's requests, the loop pushes replies
     and pops what is due. *)
  staged : staged Simulation.Heap.t; (* under [staged_lock] *)
  mutable staged_seq : int; (* under [staged_lock] *)
  staged_lock : Mutex.t;
  (* Loop-private: the next timeout scan, and the ticker that runs this
     mux on the loop. *)
  mutable next_scan : float;
  mutable ticker : Loop.ticker option;
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
    Atomic.incr l.epoch;
    l.want_write <- false;
    Loop.unwatch fd;
    try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)
(* ------------------------------------------------------------------ *)

(* Stage one frame; [t.staged_lock] must be held. *)
let push t ~due l frame =
  t.staged_seq <- t.staged_seq + 1;
  Simulation.Heap.push t.staged
    { due; seq = t.staged_seq; link = l; epoch = Atomic.get l.epoch; frame }

(* Stage the open round's request for every server that has not
   answered it yet; [mb.mb_lock] must be held.  A copy is due at the
   fan-out's one clock read, or, under a plan, when its [To_server]
   rules say, salted by the attempt number so a frame dropped now draws
   afresh on the next re-broadcast.  Every copy waits in the loop's
   deadline heap, never in the sender: the loop alone writes a link, and
   copies due together leave in one write per link. *)
let broadcast t mb ~from_loop =
  let t0 = now () in
  let staged = ref [] in
  Array.iteri
    (fun i l ->
      if not mb.mb_from.(i) then
        match t.faults with
        | None -> staged := (t0, l) :: !staged
        | Some plan ->
          List.iter
            (fun after -> staged := (t0 +. after, l) :: !staged)
            (Faults.deliveries plan ~dir:Faults.To_server ~server:i
               ~client:mb.client ~rt:mb.mb_rt ~salt:mb.mb_attempt))
    t.links;
  if !staged <> [] then begin
    (* One payload copy for every copy staged ([mb_out] is reused by the
       next round), and one heap lock per fan-out. *)
    let frame = Request (Bytes.sub mb.mb_out 0 mb.mb_len) in
    Mutex.protect t.staged_lock (fun () ->
        List.iter (fun (due, l) -> push t ~due l frame) (List.rev !staged));
    (* Every push happens before {!Loop.wake_before} reads the loop's
       deadline, and the loop publishes that deadline before it peeks
       at this heap again ({!next_due}), so either its peek sees these
       frames or the read sees its deadline and wakes it early: no
       deadline is overslept.  The loop's own sends need no wake-up: it
       re-arms after them. *)
    if not from_loop then
      Loop.wake_before
        (List.fold_left (fun m (due, _) -> Float.min m due) infinity !staged)
  end

(* ------------------------------------------------------------------ *)
(* Rounds and operations                                               *)
(* ------------------------------------------------------------------ *)

(* Release the outer {!exec}; [mb.mb_lock] must be held. *)
let finish mb result =
  mb.mb_rt <- -1;
  mb.mb_deadline <- infinity;
  mb.mb_replies <- [];
  mb.mb_exn <- result;
  mb.mb_done <- true;
  Condition.signal mb.mb_cond

(* Open round [mb_next_rt] for [req] on [key] and send it; [mb.mb_lock]
   must be held. *)
let open_round t mb ~key ~from_loop req k =
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
  let len = Buffer.length mb.mb_enc in
  if len > Bytes.length mb.mb_out then
    mb.mb_out <- Bytes.create (max len (2 * Bytes.length mb.mb_out));
  Buffer.blit mb.mb_enc 0 mb.mb_out 0 len;
  mb.mb_len <- len;
  broadcast t mb ~from_loop

let exec ~key h req k =
  let t = h.mux and mb = h.mb in
  Mutex.lock mb.mb_lock;
  (* On a busy handle the call comes from a continuation, on the loop:
     it opens the next round and returns, and the loop runs [k] when
     that round's quorum is in. *)
  let nested = mb.mb_busy in
  if (not nested) && Loop.on_loop () then begin
    Mutex.unlock mb.mb_lock;
    invalid_arg
      "Mux.exec: an operation started on the event loop's thread (from a \
       continuation?) would wait for itself"
  end;
  match open_round t mb ~key ~from_loop:nested req k with
  | exception e ->
    (* The request could not be encoded: no round is open. *)
    mb.mb_rt <- -1;
    mb.mb_deadline <- infinity;
    Mutex.unlock mb.mb_lock;
    raise e
  | () when nested -> Mutex.unlock mb.mb_lock
  | () ->
    mb.mb_busy <- true;
    mb.mb_done <- false;
    while not mb.mb_done do
      Condition.wait mb.mb_cond mb.mb_lock
    done;
    mb.mb_busy <- false;
    let result = mb.mb_exn in
    mb.mb_exn <- None;
    Mutex.unlock mb.mb_lock;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) result

(* The open round reached its quorum: run its continuation here, on the
   loop.  The operation is over once the continuation returns without
   opening another round, or raises. *)
let complete mb k replies =
  match k replies with
  | () -> Mutex.protect mb.mb_lock (fun () -> if mb.mb_rt < 0 then finish mb None)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.protect mb.mb_lock (fun () -> finish mb (Some (e, bt)))

(* Route one reply to [mb].  [body] is decoded only if the reply counts
   toward the open round: a late or duplicate reply is counted without
   paying for its decode.  Returns [false] on a corrupt body. *)
let route t mb ~server_index ~rt ~key body =
  Mutex.lock mb.mb_lock;
  if mb.mb_rt = rt && rt >= 0 && (key <> mb.mb_key || not mb.mb_from.(server_index))
  then begin
    if key <> mb.mb_key then begin
      (* Same round-trip id, wrong register: a stale or corrupt key
         route.  Counting it toward the quorum would hand the round
         another key's value — drop it instead, and never touch the
         dedup/reply state, so the real replies still complete the
         round (no wedge). *)
      Atomic.incr t.dropped;
      Mutex.unlock mb.mb_lock;
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
          mb.mb_completed <- mb.mb_completed + 1;
          Mutex.unlock mb.mb_lock;
          complete mb k replies
        end
        else Mutex.unlock mb.mb_lock;
        true
      | Codec.Keyed_request _ | (exception Codec.Decode_error _) ->
        Mutex.unlock mb.mb_lock;
        false
  end
  else begin
    mb.mb_late <- mb.mb_late + 1;
    Mutex.unlock mb.mb_lock;
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

let lookup t client =
  Mutex.lock t.routes_lock;
  let mb = Hashtbl.find_opt t.routes client in
  Mutex.unlock t.routes_lock;
  mb

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
    let mb = lookup t client in
    match (t.faults, mb) with
    | None, _ | _, None -> deliver t l mb ~key ~rt body
    | Some plan, Some m ->
      List.fold_left
        (fun up after ->
          if not up then false
          else if after > 0.0 then begin
            Mutex.protect t.staged_lock (fun () ->
                push t ~due:(t_read +. after) l
                  (Reply { key; rt; client; body }));
            true
          end
          else deliver t l mb ~key ~rt body)
        true
        (Faults.deliveries plan ~dir:Faults.From_server ~server:l.index ~client
           ~rt ~salt:(arrival t m ~server:l.index ~rt)))
  | None | (exception Codec.Decode_error _) ->
    sever l;
    false

(* Pop every staged frame due by [t_now], in deadline order, then act
   on them with the heap unlocked — a routed reply's continuation may
   stage its next round.  A due request joins its link's out-queue for
   this wake-up's one write per link, unless the queue is past
   [out_limit]; a due reply is routed.  Frames whose link severed since
   they were staged are dropped. *)
let release_due t t_now =
  Mutex.lock t.staged_lock;
  let rec pop acc =
    match Simulation.Heap.peek t.staged with
    | Some e when e.due <= t_now ->
      ignore (Simulation.Heap.pop t.staged);
      pop (e :: acc)
    | _ -> List.rev acc
  in
  let due = pop [] in
  Mutex.unlock t.staged_lock;
  List.iter
    (fun e ->
      let l = e.link in
      if Atomic.get l.epoch = e.epoch then
        match e.frame with
        | Request payload ->
          if Outq.length l.out <= out_limit then
            Outq.add_subbytes l.out payload 0 (Bytes.length payload)
        | Reply { key; rt; client; body } ->
          ignore (deliver t l (lookup t client) ~key ~rt body))
    due

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

(* A non-blocking dial: a connect that cannot complete at once leaves
   the link connecting, with write interest on; the loop finishes it
   when the socket turns writable.  Every failure mode — [socket]
   itself included (EMFILE under fd pressure) — lands in the backoff
   path. *)
let dial t l =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
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
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd l.addr
    with
    | () -> up true
    | exception
        Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR | Unix.EAGAIN), _, _)
      ->
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

(* The nearest staged deadline; [infinity] when nothing is staged. *)
let next_due t =
  Mutex.lock t.staged_lock;
  let d =
    match Simulation.Heap.peek t.staged with
    | Some e -> e.due
    | None -> infinity
  in
  Mutex.unlock t.staged_lock;
  d

let snapshot_routes t =
  Mutex.protect t.routes_lock (fun () ->
      Hashtbl.fold (fun _ mb acc -> mb :: acc) t.routes [])

(* Re-broadcast every round past its deadline to the servers still
   missing, or give the operation up with [Unavailable] once its retry
   budget is spent. *)
let scan_timeouts t t_now =
  List.iter
    (fun mb ->
      Mutex.protect mb.mb_lock (fun () ->
          if mb.mb_rt >= 0 && t_now >= mb.mb_deadline then
            if mb.mb_attempt >= t.max_rt_retries then
              finish mb
                (Some
                   ( Unavailable
                       (Printf.sprintf
                          "client %d: %d/%d replies after %d attempts of %.3fs"
                          mb.client mb.mb_n t.quorum (mb.mb_attempt + 1)
                          t.rt_timeout),
                     Printexc.get_callstack 0 ))
            else begin
              mb.mb_attempt <- mb.mb_attempt + 1;
              mb.mb_retried <- mb.mb_retried + 1;
              mb.mb_deadline <- t_now +. t.rt_timeout;
              broadcast t mb ~from_loop:true
            end))
    (snapshot_routes t)

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
              epoch = Atomic.make 0;
              want_write = false;
            })
          servers;
      quorum;
      rt_timeout;
      max_rt_retries;
      faults;
      routes = Hashtbl.create 16;
      routes_lock = Mutex.create ();
      dropped = Atomic.make 0;
      staged =
        Simulation.Heap.create ~cmp:(fun a b ->
            match Float.compare a.due b.due with
            | 0 -> Int.compare a.seq b.seq
            | c -> c);
      staged_seq = 0;
      staged_lock = Mutex.create ();
      next_scan = 0.0;
      ticker = None;
    }
  in
  (* Requests staged before the loop runs this wait in the heap. *)
  Loop.submit (fun () ->
      let tk =
        {
          Loop.step = step t;
          deadline = (fun () -> Float.min t.next_scan (next_due t));
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
      mb_lock = Mutex.create ();
      mb_cond = Condition.create ();
      mb_busy = false;
      mb_done = false;
      mb_exn = None;
      mb_rt = -1;
      mb_key = "";
      mb_from = Array.make s false;
      mb_replies = [];
      mb_n = 0;
      mb_k = ignore;
      mb_attempt = 0;
      mb_deadline = infinity;
      mb_late = 0;
      mb_next_rt = 0;
      mb_completed = 0;
      mb_retried = 0;
      mb_enc = Buffer.create 256;
      mb_out = Bytes.create 256;
      mb_len = 0;
      arr_rt = Array.make gens (-1);
      arr_n = Array.make (gens * s) 0;
    }
  in
  Mutex.protect t.routes_lock (fun () -> Hashtbl.replace t.routes client mb);
  { mux = t; mb }

let release h =
  Mutex.protect h.mux.routes_lock (fun () ->
      match Hashtbl.find_opt h.mux.routes h.mb.client with
      | Some mb when mb == h.mb -> Hashtbl.remove h.mux.routes h.mb.client
      | _ -> ())

(* On the loop: sever every link and answer a caller still blocked in
   [exec] instead of leaving it to hang.  Every step is idempotent. *)
let shutdown t =
  Loop.call ~who:"Mux.shutdown" (fun () ->
      Option.iter Loop.remove_ticker t.ticker;
      Array.iter sever t.links;
      List.iter
        (fun mb ->
          Mutex.protect mb.mb_lock (fun () ->
              if mb.mb_busy && not mb.mb_done then
                finish mb
                  (Some (Unavailable "mux shut down", Printexc.get_callstack 0))))
        (snapshot_routes t))

let rounds_completed h =
  Mutex.protect h.mb.mb_lock (fun () -> h.mb.mb_completed)

let late_replies h = Mutex.protect h.mb.mb_lock (fun () -> h.mb.mb_late)

let retries h = Mutex.protect h.mb.mb_lock (fun () -> h.mb.mb_retried)

let dropped_replies t = Atomic.get t.dropped
