(** A sharded keyspace deployment: [groups] independent in-process
    register clusters plus the consistent-hash {!Placement} ring that
    assigns every key to exactly one group.

    Groups never communicate — each key's register lives entirely inside
    one group's [S]/[S − tol] quorum system, so per-key atomicity (and
    therefore keyspace atomicity, which is per-key by definition)
    composes across groups while throughput scales with the group
    count. *)

type t

val start :
  ?faults:Transport.Faults.t ->
  groups:int ->
  s:int ->
  tol:int ->
  unit ->
  t
(** [start ~groups ~s ~tol ()] spawns [groups × s] servers:
    [groups] clusters of [s], each tolerating [tol] crashes.  [faults]
    is every group's link plan ({!Transport.Cluster.start}), realised
    by the {!Router} on the deployment. *)

val connect : addrs:Unix.sockaddr array -> tol:int -> t
(** One group attached to already-running daemons (e.g. [mwreg serve]
    processes), one address per server; see {!Transport.Cluster.connect}
    for what a remote group cannot do. *)

val group_count : t -> int

val group : t -> int -> Transport.Cluster.t
(** The [g]-th shard group's cluster (kill/restart/keyspace access). *)

val group_of : t -> string -> int
(** The shard group owning [key]. *)

val s : t -> int
val tolerance : t -> int
val quorum : t -> int

val shutdown : t -> unit
(** Stop every server of every group. *)
