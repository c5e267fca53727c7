(** The client-side placement router over the keyspace.

    One router per process views every shard group's data plane: it
    owns one shared {!Transport.Mux.t} per group, so all clients ride
    [groups × s] connections total.  {!key_ctx} then turns
    (client, key) into a {!Registers.Client_core.ctx} whose endpoint
    stamps the key on every round trip — the protocol algorithms stay
    key-blind and run per-key unchanged. *)

type t

val create :
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?faults:Transport.Faults.t ->
  clients:int ->
  Kv_cluster.t ->
  t
(** [create ~clients kc] builds the process-wide plane view.  [clients]
    is the reader count [r] the per-key contexts report (the fast-read
    admissibility scan needs it): the whole client population for mixed
    clients, only the readers when writers and readers are split (see
    {!Kv_session.roles}).
    [faults] installs a client-side fault plan on every per-group plane
    — e.g. a {!Transport.Geo} profile's latency rules. *)

type client
(** One client's view: a mux handle per shard group plus its node
    identity.  Belongs to one thread; operations are sequential. *)

val client : t -> index:int -> client
(** Client [index]'s handles.  Its node id is [s + index] (servers
    first, as in {!Protocol.Topology}); the same id serves as writer
    [index] (tag wid) and reader [index], since KV clients interleave
    both kinds. *)

val key_ctx : client -> string -> Registers.Client_core.ctx
(** The backend context for operating on [key]: endpoints pinned to
    [key]'s shard group carrying [key] on every round trip, with the
    group's [s]/[t] and the router's client population as [r]. *)

val rounds_completed : client -> int
val late_replies : client -> int
val retries : client -> int

val dropped_replies : t -> int
(** Sum of {!Transport.Mux.dropped_replies} across the per-group shared
    planes. *)

val close_client : client -> unit

val shutdown : t -> unit
(** Shut down the shared per-group planes; call after every client is
    closed. *)
