(** The server replica (Algorithm 2).

    State per server: [valᵢ], the largest value seen, and [valuevector],
    a map from each value ever received to the set of clients that have
    propagated it to this server ([updated]).  [update(val, c)]:

    - if [val > valᵢ]: record [val] with [updated = {c}] and set
      [valᵢ ← val];
    - otherwise: add [c] to [val]'s [updated] set.

    On [(write, val)] the server updates and ACKs; on [(read, valQueue)]
    it updates with every queued value {i before} replying with its full
    state.  Note the server never contacts other servers — the paper's
    model has no server-to-server channel at all.

    The in-memory valuevector is bounded: only the {!max_vector} largest
    tags are retained, and a READACK serialises at most
    {!max_wire_updated} ids per entry (always including the querying
    client, which every replying server enrolled just before the reply).
    Certificates for pruned values regenerate on demand because queries
    fold the client's valQueue back into the vector before the snapshot
    is taken.  Unbounded, the vector grows with every write ever
    performed and replies grow as O(writes × clients) — the live data
    plane collapses under exactly the client counts the scaling sweep
    measures.

    Layout: the valuevector is one array sorted by tag, sized exactly
    to its entries.  An entry holds the value record the first update
    of its tag carried (shared with the decoded request, not copied)
    and its [updated] set as a sorted int array, which an enrollment
    replaces rather than mutates, so neighbouring entries with equal
    sets share one array.  Lookups are binary searches, pruning drops
    the lowest tags with one blit, and snapshots walk the array in
    order with no sort.  A keyspace holds thousands of replicas, so
    this is what bounds a server's heap per written key; the ones it
    demotes are held as {!freeze}d bytes, smaller still. *)

type t

val max_vector : int
(** Upper bound on retained valuevector entries (largest tags win). *)

val max_wire_updated : int
(** Upper bound on [updated] ids serialised per READACK entry. *)

val create : unit -> t

val handle : t -> client:int -> Wire.req -> Wire.rep
(** Process one request, mutating the replica. *)

val current : t -> Wire.value
(** [valᵢ], for tests and traces. *)

(** {2 Snapshot / restore}

    The crash-stop model assumes a crashed server never returns; a
    server that {e does} return must either carry its full pre-crash
    state (making the restart indistinguishable from a slow server,
    which the proofs do cover) or it silently weakens the quorum
    intersection argument.  [save]/[load] make both executable: a
    restart that [load]s a [save]d state preserves atomicity, and a
    restart from {!create} (fresh state) is a model violation the
    atomicity checker catches. *)

type state = { s_current : Wire.value; s_vector : (Wire.value * int list) list }
(** [valᵢ] plus the full valuevector with its [updated] sets, values in
    ascending tag order. *)

val save : t -> state
(** A deterministic snapshot of the replica's entire state. *)

val load : state -> t
(** A fresh replica carrying exactly the [save]d state. *)

(** {2 Frozen form}

    The compact form {!Registers.Keyspace} keeps its demoted replicas
    in: one string of zigzag LEB128 varints holding [valᵢ] and every
    valuevector entry with its {e full} [updated] set.  It is loss-free
    for every OCaml int, so a frozen replica is the replica — not the
    wire's truncated view — and costs a few words where the live arrays
    cost tens.  {!save}'s list-shaped [state] is for recovery and
    tooling only; the runtime never holds it. *)

val freeze : t -> string
(** The replica's full state as compact bytes. *)

val thaw : string -> t
(** The replica {!freeze} encoded: [save (thaw (freeze r)) = save r].
    Equal neighbouring [updated] sets come back sharing one array, as
    enrollments leave them. *)
