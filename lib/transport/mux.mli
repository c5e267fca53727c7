(** The live client data plane: one TCP connection per server per
    process, shared by every client endpoint, and owned by the process's
    one event loop ({!Loop}), which serves every in-process {!Server}
    too.

    Giving each client its own [S] sockets would cost [C × S] sockets
    for [C] clients and a fresh poll loop inside every operation — at
    production client counts that drowns the paper's round-trip
    economics in transport overhead.  The mux instead runs:

    - [S] shared non-blocking connections, each private to the event
      loop as a server's connections are: a client thread never writes
      a socket, it stages its request in the mux's deadline heap and
      wakes the loop when it sleeps past the request's deadline;
    - the event loop, which dials and redials every link without
      blocking, writes every request, reads and decodes [Keyed_reply]
      frames, routes them by [(client, rt)] to per-client mailboxes,
      re-broadcasts timed-out rounds, and runs each round's
      continuation the moment its quorum is routed — so a client
      thread blocks once per operation, not once per round.  At the
      start of each of its iterations the loop does every mux's due
      work (due frames, timeouts, one write per link); a mux has no
      thread of its own, and neither has an in-process server, so a
      round trip to one crosses no thread hand-off;
    - one deadline heap that the loop sleeps to exactly.  With no plan
      a request is due as it is sent; under a plan ({!Faults}) request
      frames meet the [To_server] rules as they are sent and replies
      the [From_server] rules as they are read, and delayed replies
      wait in the same heap.  Every request due on a link at one
      wake-up leaves in one write, in deadline order, and no frame
      leaves or is routed before its deadline.

    The round-trip contract is the simulator's {!Protocol.Round_trip}:
    broadcast to all [S] servers, complete on the first [S − t] replies
    in arrival order, count stragglers late, re-broadcast on timeout a
    bounded number of times, raise {!Unavailable} when the retry budget
    is spent.  Crashed servers sever their connection (the loop reads
    EOF) and reconnects back off exponentially to a capped interval at
    which they keep probing, so [t] real kills remain survivable and a
    restarted server is always redialed.

    One {!handle} serves one client thread; operations are sequential
    per client, so a single in-flight round trip per mailbox
    suffices.

    The loop's thread is alone on a domain of its own, spawned by the
    first {!create} or {!Server.start} of the process and never joined.
    So a process that only dials remote daemons ([mwreg live
    --connect]) runs two domains too: its client threads on the
    caller's, and the loop on its own. *)

exception Unavailable of string
(** Raised by {!exec} when no quorum answered within the retry budget. *)

type t
(** The shared data plane: [S] connections plus their event loop. *)

type handle
(** One client's view of the plane: a mailbox plus round-trip counters. *)

val create :
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?faults:Faults.t ->
  servers:Unix.sockaddr array ->
  quorum:int ->
  unit ->
  t
(** Hand the mux to the process's event loop (spawning the loop on
    first use), which dials every server (tolerating failures).  [rt_timeout] (default 1s) bounds each round trip and
    [max_rt_retries] (default 3) bounds its re-broadcasts.  A failed
    connect is retried after 40 ms, doubling to a 1.28 s cap that holds
    for as long as the server stays down.  [faults] is the link plan
    the mux realises on both legs ({!Faults}): its [To_server] rules
    for every request frame sent, its [From_server] rules for every
    reply read.  The frames a severed link had staged, on either leg,
    are lost with it. *)

val client : t -> client:int -> handle
(** Register client [client] (its node id, {!Protocol.Topology}
    numbering) and return its handle.  Registering the same id again
    replaces the previous route. *)

val exec :
  key:string ->
  handle ->
  Registers.Wire.req ->
  ((int * Registers.Wire.rep) list -> unit) ->
  unit
(** One round trip over the shared connections.  The request addresses
    register [key] of each server's keyspace ([Codec.Keyed_request]);
    only replies echoing the same key count toward the quorum — a reply
    for any other key is dropped (see {!dropped_replies}), never
    delivered.  The continuation receives [(server_index, reply)] pairs
    in arrival order, and runs on the process's event loop as soon as the
    quorum is routed, not on the calling thread.

    - The outer call (on a handle with no operation in progress)
      returns once the operation's whole continuation chain has
      returned.
    - [exec] called from inside a continuation opens the next round on
      the same handle and returns at once; its continuation runs when
      that round's quorum is in.
    - An exception raised by a continuation ends the operation and is
      raised by the outer call, on the caller's thread, and so is
      [Unavailable] once a round's retry budget is spent (a reply that
      arrives after that counts as late).
    - Continuations of one handle never run concurrently.  They run on
      the loop, which every mux and in-process server of the process
      shares, so they must not block, and must not start an operation
      on another handle of any mux ([Invalid_argument]), nor call
      {!shutdown} or {!Server.stop} ([Invalid_argument] too).

    @raise Unavailable when fewer than [quorum] servers answered.
    @raise Invalid_argument when an operation is started on the event
    loop's thread. *)

val rounds_completed : handle -> int
(** Round trips that reached their quorum. *)

val late_replies : handle -> int
(** Replies that arrived after their round trip had completed. *)

val retries : handle -> int
(** Re-broadcasts issued after a round-trip timeout. *)

val dropped_replies : t -> int
(** Replies that matched no open round trip at all and were discarded:
    an unknown (released or never-registered) client id, or a key that
    differs from the one the client's open round trip asked for.  Either
    way the reply could not have been delivered anywhere — it is counted
    here and dropped without touching any mailbox's quorum state. *)

val release : handle -> unit
(** Unregister the client's route.  Replies still in flight for it are
    dropped; the shared connections stay up for other clients. *)

val shutdown : t -> unit
(** Take the mux off the event loop and return once the loop has done
    it: the loop is woken through its pipe rather than waited out,
    severs every connection of the mux, and fails an operation still in
    progress with {!Unavailable}.  The loop runs on for the rest of the
    process, so a create/shutdown cycle leaves no descriptor and no
    thread behind.  Idempotent.
    @raise Invalid_argument when called on the event loop's thread
    (from a continuation, say): it would wait for its own
    acknowledgement. *)
