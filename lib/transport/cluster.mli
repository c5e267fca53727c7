(** An in-process loopback cluster: [S] register server daemons on
    ephemeral 127.0.0.1 ports, for tests, benches and examples.

    Servers can be {!kill}ed mid-run to exercise real crash behaviour:
    as long as at most [tol] are down, client endpoints keep completing
    operations on the surviving [S − tol] quorum. *)

type t

val start : ?faults:Faults.t -> ?shards:int -> s:int -> tol:int -> unit -> t
(** Spawn [s] servers tolerating [tol] crashes (quorum [s − tol]).
    [faults] installs a fault plan on every server's reply leg and, by
    default, on every endpoint {!clients} builds (see {!Faults}).
    [shards] (default 1) is each server's reactor event-loop count
    ({!Server.start}); {!restart} reuses it, so a recovered server comes
    back with the topology it crashed with. *)

val connect : addrs:Unix.sockaddr array -> tol:int -> unit -> t
(** Attach to already-running daemons (e.g. [mwreg serve] processes)
    instead of spawning them.  {!kill}, {!restart} and {!keyspace} are
    unavailable on such a cluster ([Invalid_argument]); everything
    client-side works the same. *)

val local : t -> bool
(** [true] for {!start} clusters (in-process servers), [false] for
    {!connect} ones. *)

val s : t -> int
val tolerance : t -> int
val quorum : t -> int

val port : t -> int -> int
(** Bound port of server [i]. *)

val addrs : t -> Unix.sockaddr array
(** Dial addresses, indexed by server. *)

val keyspace : t -> int -> Registers.Keyspace.t
(** Server [i]'s register table (inspection/tests).  Carried across
    [`Recover] restarts through {!Registers.Keyspace.save}/[load]. *)

val kill : t -> int -> unit
(** Crash server [i]: connections sever, its port stops answering.
    Idempotent. *)

type restart_mode = [ `Recover | `Fresh ]
(** How a {!kill}ed server comes back: [`Recover] carries its full
    pre-crash keyspace across the restart (via
    {!Registers.Keyspace.save} / [load]), [`Fresh] rejoins with empty state — a violation of the
    crash-stop model whose effect {!Checker.Atomicity} must flag. *)

val restart : ?mode:restart_mode -> t -> int -> unit
(** Bring killed server [i] back on its original port (no-op if it is
    still running; [Invalid_argument] on a remote cluster).  Default
    mode [`Recover].  Client endpoints redial it transparently through
    their reconnect backoff. *)

val running : t -> int list
(** Indices of servers still alive. *)

val shutdown : t -> unit
(** Kill everything. *)

val register_key : string
(** The key of the single register {!clients} operate on (["r"]): the
    live single-register drivers ({!Session}, {!Chaos}) run against this
    one entry of each server's keyspace. *)

type clients = {
  writer_eps : Mux.handle array;
  reader_eps : Mux.handle array;
  ctx : Registers.Client_core.ctx;
  mux : Mux.t;  (** The shared plane; shut down by {!close_clients}. *)
}
(** A set of live client handles on one shared {!Mux} plane plus the
    backend-agnostic context the {!Registers.Client_core} algorithms
    consume.  The handle arrays stay exposed for round-trip
    statistics. *)

val clients :
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?faults:Faults.t ->
  t ->
  writers:int ->
  readers:int ->
  clients
(** Handles for [writers] writers and [readers] readers, numbered like
    {!Protocol.Topology} so live and simulated certificates agree, with
    [ctx]'s endpoints pinned to {!register_key}.
    [faults] applies the plan's [To_server] rules to every request these
    clients send; it defaults to the plan the cluster was started
    with, so one plan covers both legs of a chaos run. *)

val close_clients : clients -> unit
(** Release every handle and shut the shared connections down. *)
