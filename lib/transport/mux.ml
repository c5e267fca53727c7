open Registers

exception Unavailable of string

(* All deadlines, ticker gates and backoff gates run on the monotonic
   clock: a wall time step must not fire or stall every timeout at
   once. *)
let now = Clock.now

(* A server crashing mid-write must surface as EPIPE on that write, not
   kill the client process. *)
let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

type conn = {
  index : int; (* server index: the authoritative reply label *)
  addr : Unix.sockaddr;
  lock : Mutex.t; (* guards fd, attempts, and the outgoing buffer *)
  (* The write-combining path (flat combining, no dedicated sender
     thread): an enqueuer appends its frame to [out] under [lock]; if
     no flush is in progress it becomes the flusher, swapping the
     accumulated bytes into [staging] and issuing one [write] per
     batch.  Concurrent enqueuers find [flushing] set, append and
     return without a syscall or a thread handoff — their frames ride
     the current flusher's next iteration, arrive at the server as one
     read, are replica-handled as a batch and answered in one reply
     write. *)
  out : Buffer.t;
  mutable flushing : bool;
  mutable staging : Bytes.t; (* flusher-owned swap space, reused *)
  (* Frames a fault plan scheduled for later delivery on this link:
     (due, payload copy, truncated), sorted by deadline, guarded by
     [lock]; a fan-out's links share one read-only copy.  Senders park
     here and move on — a delay scoped to one (client, server) link
     must never stall another client's batch or the rest of a
     fan-out.  Every flush merges the due entries into its batch, and
     the ticker, which sleeps to exactly the earliest deadline, becomes
     a quiet link's flusher: all frames due at one wake-up leave in one
     write.  There are no delayer threads, mirroring the server
     reactor's timer list. *)
  mutable delayed : (float * Bytes.t * bool) list;
  (* A truncated delivery's prefix is in [out]: sever the link once the
     batch carrying it is written.  Guarded by [lock]. *)
  mutable tear : bool;
  mutable fd : Unix.file_descr option;
  mutable attempts : int; (* consecutive failed connects *)
  mutable next_attempt : float; (* wall-clock gate for the next connect *)
}

type mailbox = {
  client : int;
  mb_lock : Mutex.t;
  mb_cond : Condition.t;
  (* State of the (single) in-flight round trip.  [mb_rt = -1] means no
     round trip is open: anything routed then is late.  [mb_key] is the
     open round trip's register key: a reply whose key differs cannot
     count toward this quorum and is dropped, never delivered. *)
  mutable mb_rt : int;
  mutable mb_key : string;
  mb_from : bool array; (* per-server dedup for the open round trip *)
  mutable mb_replies : (int * Wire.rep) list; (* newest first *)
  mutable mb_n : int;
  mutable mb_late : int;
  mutable mb_next_rt : int;
  mutable mb_deadline : float; (* ticker wakes the waiter only past this *)
  mutable mb_completed : int;
  mutable mb_retried : int; (* re-broadcasts after a round-trip timeout *)
  (* Reused send path: the frame is encoded once per operation into
     [enc], blitted into [out], and the same bytes go to every
     connection — allocation-free once both have reached steady size. *)
  mb_enc : Buffer.t;
  mutable mb_out : Bytes.t;
}

type t = {
  conns : conn array;
  quorum : int;
  rt_timeout : float;
  max_rt_retries : int;
  faults : Faults.t option;
  (* The ticker sleeps in [poller] on the read end of its own wake pipe.
     [armed] is the deadline it is asleep until, [neg_infinity] while it
     is awake: a sender whose fan-out staged a frame due before [armed]
     writes one byte to [wake_w], so the ticker re-arms for the earlier
     deadline instead of oversleeping it (geo profiles go down to
     sub-millisecond bases). *)
  poller : Netio.Poller.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  armed : float Atomic.t;
  routes : (int, mailbox) Hashtbl.t;
  routes_lock : Mutex.t;
  (* Replies that matched no open round trip at all: unknown client
     (handle released, or a peer inventing ids) or a key mismatch on the
     open round.  Distinct from [mb_late] — a late reply belongs to a
     round this client really ran; a dropped one could never have been
     delivered anywhere. *)
  dropped : int Atomic.t;
  mutable demuxers : Thread.t list; (* joined on shutdown *)
  mutable ticker : Thread.t option;
  stopping : bool Atomic.t;
}

type handle = { mux : t; mb : mailbox }

(* ------------------------------------------------------------------ *)
(* Reply routing (demux threads)                                       *)
(* ------------------------------------------------------------------ *)

let route t ~server_index ~client ~rt ~key rep =
  let mb =
    Mutex.protect t.routes_lock (fun () -> Hashtbl.find_opt t.routes client)
  in
  match mb with
  | None ->
    (* Client released its handle (or the peer invented an id): there is
       no mailbox this could ever belong to. *)
    Atomic.incr t.dropped
  | Some mb ->
    Mutex.protect mb.mb_lock (fun () ->
        if mb.mb_rt = rt then begin
          if key <> mb.mb_key then
            (* Same round-trip id, wrong register: a stale or corrupt
               key route.  Counting it toward the quorum would hand the
               waiter another key's value — drop it instead, and never
               touch the dedup/reply state, so the real replies still
               complete the round (no wedge). *)
            Atomic.incr t.dropped
          else if not mb.mb_from.(server_index) then begin
            mb.mb_from.(server_index) <- true;
            mb.mb_replies <- (server_index, rep) :: mb.mb_replies;
            mb.mb_n <- mb.mb_n + 1;
            (* Quorum-gated wake-up: replies below the quorum cannot
               unblock the waiter, so signalling them would only burn a
               scheduler pass per straggler.  The ticker covers timeout
               detection for rounds that never get there. *)
            if mb.mb_n >= t.quorum then Condition.signal mb.mb_cond
          end
          else mb.mb_late <- mb.mb_late + 1
        end
        else mb.mb_late <- mb.mb_late + 1)

(* The demux thread owns [fd] for the life of one connection: it is the
   only reader, and on any failure it severs the connection — but only
   if the conn still points at its own fd (a reconnect may already have
   replaced it). *)
let disconnect c fd =
  Mutex.protect c.lock (fun () ->
      match c.fd with
      | Some cur when cur == fd -> c.fd <- None
      | _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let demux t c fd () =
  let stream = Codec.Stream.create () in
  let buf = Bytes.create 65536 in
  (try
     let stop = ref false in
     while not !stop do
       match Netio.read fd buf 0 (Bytes.length buf) with
       | 0 -> stop := true
       | n ->
         Codec.Stream.feed stream buf n;
         let rec drain () =
           match Codec.Stream.next stream with
           | Some (Codec.Keyed_reply { key; rt; client; server = _; rep }) ->
             (* Route by (client, rt); the connection's own index is the
                authoritative server label, not the peer-reported one. *)
             route t ~server_index:c.index ~client ~rt ~key rep;
             drain ()
           | Some (Codec.Keyed_request _) ->
             (* Servers never send requests; cut the broken peer off. *)
             stop := true
           | None -> ()
         in
         drain ()
       | exception Unix.Unix_error _ -> stop := true
     done
   with Codec.Decode_error _ -> ());
  disconnect c fd

(* ------------------------------------------------------------------ *)
(* Connecting and sending                                              *)
(* ------------------------------------------------------------------ *)

(* Exponentially backed-off reconnect; [c.lock] must be held.  The
   gate doubles from [connect_backoff] up to a cap of 64× and then
   keeps probing at that interval: a server that stays down past any
   fixed budget is still redialed once {!Cluster.restart} brings it
   back, while a dead one costs one refused connect per ~1.3 s.  A
   fresh connection gets a fresh demux thread.  Every failure mode —
   including [socket] itself (EMFILE under fd pressure) and a failed
   [Thread.create] — lands in the backoff path rather than escaping:
   an exception thrown past a caller holding [c.lock] would poison the
   connection (and wedge [shutdown]) forever. *)
let connect_backoff = 0.02

let backoff c =
  c.attempts <- c.attempts + 1;
  c.next_attempt <-
    now () +. (connect_backoff *. float_of_int (1 lsl min c.attempts 6))

let try_connect t c =
  match c.fd with
  | Some fd -> Some fd
  | None ->
    if Atomic.get t.stopping || now () < c.next_attempt then None
    else begin
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ ->
        backoff c;
        None
      | fd -> (
        match
          Unix.connect fd c.addr;
          Unix.setsockopt fd Unix.TCP_NODELAY true
        with
        | () -> (
          c.fd <- Some fd;
          c.attempts <- 0;
          match Thread.create (demux t c fd) () with
          | th ->
            Mutex.protect t.routes_lock (fun () ->
                t.demuxers <- th :: t.demuxers);
            Some fd
          | exception _ ->
            (* No demux thread was created, so this thread is the fd's
               only owner and may close it directly. *)
            c.fd <- None;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            backoff c;
            None)
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          backoff c;
          None)
    end

(* The entries of a (sorted) deadline queue still pending at [t_now]. *)
let rec not_due t_now = function
  | (due, _, _) :: l when due <= t_now -> not_due t_now l
  | l -> l

(* Move the staged deliveries due by [t_now] into [c.out], in deadline
   order; [c.lock] must be held.  A due truncated entry ends the run:
   its prefix goes in last and [c.tear] severs the link once that batch
   is written, so the due frames behind it are lost with the link, as
   on a real corrupting one. *)
let merge_due c t_now =
  let rec go = function
    | (due, payload, truncated) :: rest when due <= t_now ->
      if truncated then begin
        Buffer.add_subbytes c.out payload 0 (max 1 (Bytes.length payload / 2));
        c.tear <- true;
        c.delayed <- not_due t_now rest
      end
      else begin
        Buffer.add_bytes c.out payload;
        go rest
      end
    | l -> c.delayed <- l
  in
  go c.delayed

(* Drain the link as its flusher, a role the caller claimed by setting
   [c.flushing] under [c.lock] with the link up.  Each iteration merges
   the staged deliveries that have come due, swaps the accumulated
   bytes into [staging] and writes them in one [write_all] with the
   lock dropped; meanwhile other enqueuers just append, and their bytes
   ride the next iteration.  On a write error (or after a torn frame)
   the link is severed ([shutdown], not [close] — the demux thread is
   the fd's sole closer) and the staged batch is dropped; the
   round-trip retry loop re-broadcasts after reconnect.  Frames that
   other clients appended to [c.out] while the write ran unlocked are
   NOT part of that batch and stay queued: the next flusher sends them
   once the link is back. *)
let flush c =
  Mutex.lock c.lock;
  let more = ref true in
  while !more do
    merge_due c (now ());
    let blen = Buffer.length c.out in
    if blen = 0 then more := false
    else begin
      if blen > Bytes.length c.staging then
        c.staging <- Bytes.create (max blen (2 * Bytes.length c.staging));
      Buffer.blit c.out 0 c.staging 0 blen;
      Buffer.clear c.out;
      let tear = c.tear in
      c.tear <- false;
      match c.fd with
      | None -> more := false (* the link died since the append: drop *)
      | Some fd ->
        Mutex.unlock c.lock;
        let wrote =
          match Netio.write_all fd c.staging 0 blen with
          | () -> true
          | exception Unix.Unix_error _ -> false
        in
        Mutex.lock c.lock;
        if tear || not wrote then begin
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ());
          (match c.fd with
          | Some cur when cur == fd -> c.fd <- None
          | _ -> ());
          more := false
        end
    end
  done;
  c.flushing <- false;
  Mutex.unlock c.lock

(* Send a frame on the shared connection: all [len] bytes, or with
   [~torn] a prefix of them, after which the link is severed (a
   truncation fault poisons the shared stream, so every rider
   reconnects and retries — what a corrupting link costs on this
   plane).  The caller appends under [c.lock]; if no flush is in
   progress it becomes the flusher — uncontended, that is one inline
   [write] with no thread handoff.  While a flush is running it just
   appends and returns — the active flusher carries the bytes: no
   syscall, no signal, no context switch.  A link that is down and
   cannot be redialed yet drops the frame; the round-trip retry loop
   re-broadcasts. *)
let enqueue ?(torn = false) t c bytes len =
  if
    Mutex.protect c.lock (fun () ->
        match try_connect t c with
        | None -> false
        | Some _ ->
          if torn then begin
            Buffer.add_subbytes c.out bytes 0 (max 1 (len / 2));
            c.tear <- true
          end
          else Buffer.add_subbytes c.out bytes 0 len;
          let claimed = not c.flushing in
          c.flushing <- true;
          claimed)
  then flush c

(* Park one scheduled delivery on the link's deadline queue (sorted
   insert, after any entry with the same deadline; queues hold a
   handful of frames, the reactor's timer-list idiom).  The payload is
   never written once staged, so one copy can sit on every link's
   queue.  Staging does not wake the ticker: the caller stages a whole
   fan-out, then wakes it at most once, for the earliest deadline. *)
let stage_delayed c ~due payload truncated =
  Mutex.protect c.lock (fun () ->
      let rec ins = function
        | [] -> [ (due, payload, truncated) ]
        | ((d, _, _) :: _) as l when due < d -> (due, payload, truncated) :: l
        | e :: rest -> e :: ins rest
      in
      c.delayed <- ins c.delayed)

(* The ticker's half of the delay drain, for a link whose earliest
   staged frame is due: the ticker becomes its flusher, so every frame
   due at this wake-up leaves in one write.  If a flush is already
   running the due frames join its queue instead, to ride its next
   iteration.  A link that is down and cannot be redialed yet loses
   its due frames, as a dead link would. *)
let release_due t c t_now =
  let claimed =
    Mutex.protect c.lock (fun () ->
        match c.delayed with
        | (due, _, _) :: _ when due <= t_now -> (
          if c.flushing then begin
            merge_due c t_now;
            false
          end
          else
            match try_connect t c with
            | Some _ ->
              c.flushing <- true;
              true
            | None ->
              c.delayed <- not_due t_now c.delayed;
              false)
        | [] | _ :: _ -> false)
  in
  if claimed then flush c

(* Nearest staged deadline across every link; [infinity] when idle. *)
let next_delayed_due t =
  Array.fold_left
    (fun acc c ->
      Mutex.protect c.lock (fun () ->
          match c.delayed with
          | (d, _, _) :: _ -> Float.min acc d
          | [] -> acc))
    infinity t.conns

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Timeouts are detected on wake-up, and the stdlib condvar has no timed
   wait — one ticker thread per mux broadcasts every few tens of
   milliseconds so blocked operations re-check their deadline.  Normal
   completions never wait for a tick: every routed reply signals its
   mailbox directly. *)
let tick_period t = Float.max 0.005 (Float.min 0.05 (t.rt_timeout /. 4.0))

let ticker_body t () =
  (* Two deadlines share one sleep: the timeout scan at its own cadence
     (tick_period — delivering a staged frame must not drag every
     blocked mailbox through the scheduler) and the earliest staged
     delivery, to the nanosecond (the poller's wait runs this thread
     with 1 ns timer slack, so the wake-up lands at the deadline, not
     up to 50 µs after it).  At each wake-up every link with a
     due frame is flushed once, carrying all its due frames in one
     write.  With no frame staged (no delay plan, or all delivered) the
     ticker wakes only for the scan, a stage or [shutdown]. *)
  let next_scan = ref (now () +. tick_period t) in
  while not (Atomic.get t.stopping) do
    Atomic.set t.armed neg_infinity;
    let t_now = now () in
    Array.iter (fun c -> release_due t c t_now) t.conns;
    if t_now >= !next_scan then begin
      next_scan := t_now +. tick_period t;
      let mbs =
        Mutex.protect t.routes_lock (fun () ->
            Hashtbl.fold (fun _ mb acc -> mb :: acc) t.routes [])
      in
      List.iter
        (fun mb ->
          Mutex.protect mb.mb_lock (fun () ->
              (* Wake a waiter only when its round has actually timed
                 out; broadcasting every tick would drag every blocked
                 client through the scheduler 20 times a second for
                 nothing. *)
              if mb.mb_rt >= 0 && t_now >= mb.mb_deadline then
                Condition.broadcast mb.mb_cond))
        mbs
    end;
    let target = Float.min !next_scan (next_delayed_due t) in
    Atomic.set t.armed target;
    (* A frame staged since the drain saw [neg_infinity] and did not
       write to the pipe: this rescan, after the store, catches it. *)
    let target = Float.min target (next_delayed_due t) in
    ignore
      (Netio.Poller.wait t.poller ~timeout:(target -. now ())
         (fun _ ~readable:_ ~writable:_ -> Netio.drain_wake t.wake_r))
  done

let create ?(rt_timeout = 1.0) ?(max_rt_retries = 3) ?faults ~servers ~quorum
    () =
  Lazy.force ignore_sigpipe;
  let n = Array.length servers in
  if quorum <= 0 || quorum > n then
    invalid_arg "Mux.create: quorum out of range";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Netio.set_nonblock wake_r;
  Netio.set_nonblock wake_w;
  let poller = Netio.Poller.create () in
  Netio.Poller.add poller wake_r ~want_write:false;
  let t =
    {
      conns =
        Array.mapi
          (fun index addr ->
            {
              index;
              addr;
              lock = Mutex.create ();
              out = Buffer.create 4096;
              flushing = false;
              staging = Bytes.create 4096;
              delayed = [];
              tear = false;
              fd = None;
              attempts = 0;
              next_attempt = 0.0;
            })
          servers;
      quorum;
      rt_timeout;
      max_rt_retries;
      faults;
      poller;
      wake_r;
      wake_w;
      armed = Atomic.make neg_infinity;
      routes = Hashtbl.create 16;
      routes_lock = Mutex.create ();
      dropped = Atomic.make 0;
      demuxers = [];
      ticker = None;
      stopping = Atomic.make false;
    }
  in
  (* Optimistic first dial; failures just leave the conn in backoff. *)
  Array.iter
    (fun c -> Mutex.protect c.lock (fun () -> ignore (try_connect t c)))
    t.conns;
  t.ticker <- Some (Thread.create (ticker_body t) ());
  t

let client t ~client =
  let mb =
    {
      client;
      mb_lock = Mutex.create ();
      mb_cond = Condition.create ();
      mb_rt = -1;
      mb_key = "";
      mb_from = Array.make (Array.length t.conns) false;
      mb_replies = [];
      mb_n = 0;
      mb_late = 0;
      mb_next_rt = 0;
      mb_deadline = infinity;
      mb_completed = 0;
      mb_retried = 0;
      mb_enc = Buffer.create 256;
      mb_out = Bytes.create 256;
    }
  in
  Mutex.protect t.routes_lock (fun () -> Hashtbl.replace t.routes client mb);
  { mux = t; mb }

let release h =
  Mutex.protect h.mux.routes_lock (fun () ->
      match Hashtbl.find_opt h.mux.routes h.mb.client with
      | Some mb when mb == h.mb -> Hashtbl.remove h.mux.routes h.mb.client
      | _ -> ())

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Severing the sockets pops every demux thread out of [read] and
       fails any in-flight flusher's write. *)
    Array.iter
      (fun c ->
        Mutex.protect c.lock (fun () ->
            match c.fd with
            | Some fd -> (
              try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
            | None -> ()))
      t.conns;
    let demuxers =
      Mutex.protect t.routes_lock (fun () ->
          let ds = t.demuxers in
          t.demuxers <- [];
          ds)
    in
    List.iter Thread.join demuxers;
    Netio.notify t.wake_w;
    (match t.ticker with
    | Some th ->
      Thread.join th;
      t.ticker <- None
    | None -> ());
    (* A sender racing this shutdown must not write to the pipe's
       descriptor number once it is closed and possibly reused. *)
    Atomic.set t.armed neg_infinity;
    Netio.Poller.close t.poller;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* The round trip                                                      *)
(* ------------------------------------------------------------------ *)

let exec ~key h req k =
  let t = h.mux and mb = h.mb in
  let rt =
    Mutex.protect mb.mb_lock (fun () ->
        let rt = mb.mb_next_rt in
        mb.mb_next_rt <- rt + 1;
        mb.mb_rt <- rt;
        mb.mb_key <- key;
        Array.fill mb.mb_from 0 (Array.length mb.mb_from) false;
        mb.mb_replies <- [];
        mb.mb_n <- 0;
        mb.mb_deadline <- now () +. t.rt_timeout;
        rt)
  in
  (* Encode once; the same bytes go out on all S shared connections. *)
  Codec.encode_into mb.mb_enc
    (Codec.Keyed_request { key; rt; client = mb.client; req });
  let len = Buffer.length mb.mb_enc in
  if len > Bytes.length mb.mb_out then
    mb.mb_out <- Bytes.create (max len (2 * Bytes.length mb.mb_out));
  Buffer.blit mb.mb_enc 0 mb.mb_out 0 len;
  let attempt = ref 0 in
  let broadcast () =
    (* One clock read per fan-out: copies staged together (duplicates,
       or every link under one latency) share their deadline and leave
       in one write per link. *)
    let t0 = now () in
    (* One payload copy shared by every staged delivery ([mb.mb_out] is
       reused by the next operation), and one ticker wake-up for the
       earliest of their deadlines. *)
    let payload = lazy (Bytes.sub mb.mb_out 0 len) in
    let earliest = ref infinity in
    Array.iter
      (fun c ->
        (* Racy read of [mb_from] outside the mailbox lock: the worst
           case is a duplicate send to a server that replied this very
           instant, and replica operations are idempotent. *)
        if not mb.mb_from.(c.index) then
          match t.faults with
          | None -> enqueue t c mb.mb_out len
          | Some plan ->
            (* Salted by the attempt number: a frame dropped now draws
               afresh on the next re-broadcast. *)
            let ds =
              Faults.deliveries plan ~dir:Faults.To_server ~server:c.index
                ~client:mb.client ~rt ~salt:!attempt
            in
            List.iter
              (fun { Faults.after; truncated } ->
                if after > 0.0 then begin
                  (* Park on the link's deadline queue — never sleep in
                     the sender: a delay scoped to this link must not
                     stall other clients' batches or the rest of this
                     fan-out. *)
                  let due = t0 +. after in
                  stage_delayed c ~due (Lazy.force payload) truncated;
                  earliest := Float.min !earliest due
                end
                else enqueue ~torn:truncated t c mb.mb_out len)
              ds)
      t.conns;
    (* Every insert happens before [armed] is read, and the ticker
       stores [armed] before it rescans the queues, so either the
       ticker's rescan sees the staged frames or this read sees the
       ticker's deadline and wakes it early: no deadline is
       overslept. *)
    if !earliest < Atomic.get t.armed then Netio.notify t.wake_w
  in
  broadcast ();
  let give_up = ref false in
  Mutex.lock mb.mb_lock;
  while mb.mb_n < t.quorum && not !give_up do
    Condition.wait mb.mb_cond mb.mb_lock;
    if mb.mb_n < t.quorum && now () >= mb.mb_deadline then begin
      (* Round-trip timed out: re-broadcast to the servers still
         missing (reconnecting dropped links), bounded. *)
      if !attempt >= t.max_rt_retries then give_up := true
      else begin
        incr attempt;
        mb.mb_retried <- mb.mb_retried + 1;
        Mutex.unlock mb.mb_lock;
        broadcast ();
        Mutex.lock mb.mb_lock;
        mb.mb_deadline <- now () +. t.rt_timeout
      end
    end
  done;
  let nreplies = mb.mb_n in
  let replies = List.rev mb.mb_replies in
  mb.mb_rt <- -1;
  mb.mb_deadline <- infinity;
  mb.mb_replies <- [];
  Mutex.unlock mb.mb_lock;
  if nreplies >= t.quorum then begin
    Mutex.protect mb.mb_lock (fun () ->
        mb.mb_completed <- mb.mb_completed + 1);
    k replies
  end
  else
    raise
      (Unavailable
         (Printf.sprintf "client %d: %d/%d replies after %d attempts of %.3fs"
            mb.client nreplies t.quorum (!attempt + 1) t.rt_timeout))

let rounds_completed h =
  Mutex.protect h.mb.mb_lock (fun () -> h.mb.mb_completed)

let late_replies h =
  Mutex.protect h.mb.mb_lock (fun () -> h.mb.mb_late)

let retries h =
  Mutex.protect h.mb.mb_lock (fun () -> h.mb.mb_retried)

let dropped_replies t = Atomic.get t.dropped
