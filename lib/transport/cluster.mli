(** An in-process cluster of [S] register server daemons, each on a
    Unix-domain stream socket named in Linux's abstract namespace (per
    process, cluster and server; no file on disk; Linux-only, as are CI
    and the benchmark host).  Daemons in other processes ([mwreg serve])
    are reached over TCP through {!connect}.

    Servers can be {!kill}ed mid-run to exercise real crash behaviour:
    as long as at most [tol] are down, clients keep completing
    operations on the surviving [S − tol] quorum.  Clients reach a
    cluster through [Kv.Router], one of its shard groups. *)

type t

val start : ?faults:Faults.t -> s:int -> tol:int -> unit -> t
(** Spawn [s] servers tolerating [tol] crashes (quorum [s − tol]).
    [faults] is the cluster's link plan (see {!Faults}): the servers
    realise nothing, and a [Kv.Router] on the cluster realises it on
    both legs of every link unless it is given a plan of its own. *)

val connect : addrs:Unix.sockaddr array -> tol:int -> unit -> t
(** Attach to already-running daemons (e.g. [mwreg serve] processes)
    instead of spawning them.  {!kill}, {!restart} and {!keyspace} are
    unavailable on such a cluster ([Invalid_argument]); everything
    client-side works the same. *)

val local : t -> bool
(** [true] for {!start} clusters (in-process servers), [false] for
    {!connect} ones. *)

val faults : t -> Faults.t option
(** The link plan given to {!start}; [None] for {!connect} clusters. *)

val s : t -> int
val tolerance : t -> int
val quorum : t -> int

val addrs : t -> Unix.sockaddr array
(** Dial addresses, indexed by server. *)

val pp_addr : Format.formatter -> Unix.sockaddr -> unit
(** [HOST:PORT], a socket path, or [@NAME] for an abstract one. *)

val keyspace : t -> int -> Registers.Keyspace.t
(** Server [i]'s register table (inspection/tests).  Carried across
    [`Recover] restarts through {!Registers.Keyspace.save}/[load]. *)

val kill : t -> int -> unit
(** Crash server [i]: connections sever, its name stops answering, and
    its keyspace is saved and reloaded all cold ({!Server.snapshot}),
    the state a [`Recover] restart serves.  Idempotent. *)

type restart_mode = [ `Recover | `Fresh ]
(** How a {!kill}ed server comes back: [`Recover] carries its full
    pre-crash keyspace across the restart (via
    {!Registers.Keyspace.save} / [load]), [`Fresh] rejoins with empty state — a violation of the
    crash-stop model whose effect {!Checker.Atomicity} must flag. *)

val restart : ?mode:restart_mode -> t -> int -> unit
(** Bring killed server [i] back under its original name (no-op if it is
    still running; [Invalid_argument] on a remote cluster).  Default
    mode [`Recover].  Client endpoints redial it transparently through
    their reconnect backoff. *)

val running : t -> int list
(** Indices of servers still alive. *)

val shutdown : t -> unit
(** Kill everything. *)
