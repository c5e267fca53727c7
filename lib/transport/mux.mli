(** The live client data plane: one TCP connection per server per
    process, shared by every client endpoint.

    Giving each client its own [S] sockets would cost [C × S] sockets
    for [C] clients and a fresh poll loop inside every operation — at
    production client counts that drowns the paper's round-trip
    economics in transport overhead.  The mux instead runs:

    - [S] shared connections, each written under a per-connection lock
      with a reused encode buffer (no per-frame allocation once warm);
    - one demux reader thread per connection that decodes
      [Keyed_reply] frames and routes them by [(client, rt)] into
      per-client mailboxes
      (mutex + condvar) — no [select], no per-iteration fd scans;
    - {!exec} = encode once, enqueue on the [S] shared connections,
      block on the caller's own mailbox until quorum or timeout;
    - one ticker thread that wakes rounds past their timeout and, under
      a fault plan's delays, releases staged frames at their deadlines:
      every frame due on a link at one wake-up leaves in one write, in
      deadline order, and none leaves before its deadline.

    The round-trip contract is the simulator's {!Protocol.Round_trip}:
    broadcast to all [S] servers, complete on the first [S − t] replies
    in arrival order, count stragglers late, re-broadcast on timeout a
    bounded number of times, raise {!Unavailable} when the retry budget
    is spent.  Crashed servers sever their connection (the demux thread
    sees EOF) and reconnects back off exponentially to a capped
    interval at which they keep probing, so [t] real kills remain
    survivable and a restarted server is always redialed.

    One {!handle} belongs to one client thread; operations are
    sequential per client, so a single in-flight round trip per mailbox
    suffices. *)

exception Unavailable of string
(** Raised by {!exec} when no quorum answered within the retry budget. *)

type t
(** The shared data plane: [S] connections plus their demux threads. *)

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
(** Dial every server (tolerating failures) and start the demux
    threads.  [rt_timeout] (default 1s) bounds each round trip and
    [max_rt_retries] (default 3) bounds its re-broadcasts.  A failed
    connect is retried after 40 ms, doubling to a 1.28 s cap that holds
    for as long as the server stays down.  [faults] subjects every
    outgoing request frame to the plan's [To_server] rules ({!Faults})
    — note a truncated frame severs the {e shared} connection, so every
    rider reconnects and retries. *)

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
(** One round trip over the shared connections.  The continuation
    receives [(server_index, reply)] pairs in arrival order and runs in
    the calling thread.  The request addresses register [key] of each
    server's keyspace ([Codec.Keyed_request]); only replies echoing the
    same key count toward the quorum — a reply for any other key is
    dropped (see {!dropped_replies}), never delivered.
    @raise Unavailable when fewer than [quorum] servers answered. *)

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
(** Sever every connection, stop the demux and ticker threads, and join
    them; the ticker is woken through its pipe rather than waited out.
    Closes the ticker's pipe and poller, so a create/shutdown cycle
    leaves no descriptor behind.  Idempotent. *)
