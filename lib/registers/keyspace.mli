(** A named keyspace of atomic registers: one {!Replica} per key.

    Replicas are instantiated lazily, on the first request that names
    their key, and the set of fully-materialised replicas is
    recency-bounded the way {!Replica}'s own value vector is: past
    [max_hot] resident replicas, the least recently used are demoted to
    their {!Replica.freeze}d bytes and thawed on the next access.
    Demotion is loss-free — the frozen form carries the vector with its
    full [updated] certificate sets — so bounding memory never costs
    atomicity, only a rebuild when a cold key is touched again.

    Demoted keys live in one byte arena of records (key and frozen
    bytes, each behind a LEB128 length) reached through an
    open-addressing index of arena offsets.  A 12-byte key whose
    replica holds one vector entry is a 23-byte record; with its index
    slot and the arena's growth slack it costs 5.7 words (46 bytes) at
    32 768 keys and [max_hot] 4 096, where a resident key costs about
    22 words.  Thawing a key leaves its record dead; once the dead
    bytes exceed the live ones, the live records are compacted into an
    arena sized to them.

    Resident replicas sit on an intrusive recency list, moved to the
    front on every access.  Demotion runs in batches: once the hot set
    exceeds [max_hot], the oldest slots come off the list's tail until
    [max 1 (3·max_hot/4)] remain.  A pass costs O(dropped) and sorts
    nothing.

    The keyspace is not itself thread-safe: the server serialises all
    access behind its replica lock, preserving the model's
    one-message-at-a-time server semantics per key. *)

type t

val create : ?max_hot:int -> unit -> t
(** An empty keyspace keeping at most [max_hot] (default 4096) replicas
    fully materialised. *)

val handle : t -> key:string -> client:int -> Wire.req -> Wire.rep
(** [handle t ~key ~client req] runs [req] against [key]'s replica —
    {!Replica.handle} on that key's replica, creating or rehydrating it
    as needed and marking it most recently used. *)

val key_count : t -> int
(** Distinct keys ever touched (resident + demoted). *)

val hot_count : t -> int
(** Keys currently holding a materialised replica. *)

val is_hot : t -> string -> bool
(** Whether [key] currently holds a materialised replica. *)

type state = (string * Replica.state) list
(** Durable snapshot of the whole keyspace, sorted by key. *)

val save : t -> state

val load : ?max_hot:int -> state -> t
(** Rebuild from a snapshot.  All keys start demoted (frozen) and
    thaw lazily on first access. *)
