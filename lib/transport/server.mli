(** A register server daemon: one {!Registers.Keyspace} of named
    registers behind a TCP listen socket, served without a thread of its
    own by the process's one event loop ({!Loop}).

    Each key's register is exactly the replica state machine the
    simulator uses — [current] value plus the full-information value
    vector with [updated] sets — and answers Query/Update requests per
    the paper's server algorithm (Algorithm 2).  Instead of a thread per connection,
    the event loop (epoll where available, poll elsewhere) drives
    non-blocking sockets: each connection's bytes feed an incremental
    {!Codec.Stream}, every complete frame decoded by one wakeup is
    handled as a batch under a single replica-lock acquisition, and the
    batch's replies coalesce into one write from a per-connection
    out-queue.  A peer that stops reading costs a write-interest
    registration (backpressure), never a blocked thread — which is what
    lets one daemon hold 1000+ concurrent connections.  Once a
    connection's out-queue passes a ceiling (4 MiB) the server stops
    decoding its requests and drops its read interest until a flush
    brings the queue back under: a peer that asks faster than it reads
    is slowed down, never cut off.

    The event loop runs on one thread, which owns every connection of
    every server in the process and every {!Mux} link, so a server
    handles its messages one at a time in that thread's dispatch order
    (the model's one-message-at-a-time server), and a request from an
    in-process mux is read, handled and answered without waking another
    thread.  The loop's thread is alone on its own domain, spawned by
    the first {!start} or {!Mux.create} and never joined; whatever the
    number of servers, groups, muxes or restarts, a process has that
    one loop thread.  The process's client threads and [Check_sink]
    drain stay on the caller's domain, so serving a request never waits
    for their runtime lock.

    Servers never talk to each other (the model's communication
    restriction is structural here: nothing ever dials out). *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?id:int ->
  ?keyspace:Registers.Keyspace.t ->
  unit ->
  t
(** Bind [host:port] (default [127.0.0.1:0] — port 0 picks an ephemeral
    port, see {!port}; a port outside [0..65535] or a [host] that is
    not a numeric IPv4 address is [Invalid_argument], raised before any
    socket opens) and serve until {!stop}, from the process's event
    loop (spawned by the first call if no {!Mux.create} came first).  [id] is the server's
    index, echoed in every reply so clients can attribute messages.
    A server realises no fault plan: both legs of a link are shaped by
    the client's {!Mux}, so every reply leaves with its batch.
    [keyspace] (default fresh and empty) holds every register the
    server hosts: a [Codec.Keyed_request] dispatches to the named
    per-key replica and is answered with a [Keyed_reply] echoing the
    key. *)

val port : t -> int
(** The actual bound port. *)

val keyspace : t -> Registers.Keyspace.t
(** The hosted named-register table (inspection/tests). *)

val snapshot : t -> Registers.Keyspace.state
(** The hosted keyspace's durable state ({!Registers.Keyspace.save}),
    read under the replica lock, so it is safe on a running server
    too (recovery). *)

val connection_count : t -> int
(** Live connections.  Observability for tests: must
    return to 0 once every client has disconnected — the loop closes
    a connection the moment its socket reports EOF, with no reaper tick
    in between. *)

val stop : t -> unit
(** Crash the server: stop accepting, close every client connection,
    and return once the event loop has closed them all (the loop itself
    runs on).  Clients observe EOF/ECONNREFUSED — exactly the crash
    failures the [t]-tolerant quorum logic must survive.  Idempotent.
    @raise Invalid_argument when called on the event loop's thread
    (from a {!Mux.exec} continuation, say): it would wait for its own
    acknowledgement. *)
