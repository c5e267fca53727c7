(** A named keyspace of atomic registers: one {!Replica} per key.

    Replicas are instantiated lazily, on the first request that names
    their key, and the set of fully-materialised replicas is
    recency-bounded the way {!Replica}'s own value vector is: past
    [max_hot] resident replicas, the least recently used are demoted to
    their {!Replica.freeze}d bytes and thawed on the next access.
    Demotion is loss-free — the frozen form carries the vector with its
    full [updated] certificate sets — so bounding memory never costs
    atomicity, only a rebuild when a cold key is touched again.

    Both tiers hang off one open-addressing index of 4-byte slots
    ({!Flat_index}): a key's slot names either its resident slot or
    its demoted record's arena offset, so moving a key between tiers
    rewrites that one word, and a miss is one probe sequence.  Keys are
    never removed, so the index holds no tombstones; it doubles once it
    would pass half load.

    Demoted keys live in one byte arena of records (key and frozen
    bytes, each behind a LEB128 length); a 12-byte key whose replica
    holds one vector entry is a 23-byte record.  Thawing a key leaves
    its record dead; once the dead bytes exceed the live ones, the live
    records are compacted into an arena sized to them.

    Resident replicas sit in struct-of-arrays slots: the key, the
    replica, and one [Bytes] of int32 recency links and index
    positions, grown by doubling up to [max_hot + 1] slots, with freed
    slots kept on a stack.  Every access moves its slot to the front of
    the recency list.  Demotion runs in batches: once the hot set
    exceeds [max_hot], the oldest slots come off the list's tail until
    [max 1 (3·max_hot/4)] remain.  A pass costs O(dropped) and sorts
    nothing.

    Filled as a benchmark set-up fills it (a query and a write-back per
    12-byte key), a keyspace costs, in words per key reachable from
    it: 20.1 at 16 keys, 17.5 at 4 096 (all resident), 6.1 at 32 768
    with [max_hot] 4 096, and 4.7 at 262 144, where nearly every key
    is demoted.

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
