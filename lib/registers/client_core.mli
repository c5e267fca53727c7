(** Client-side building blocks shared by the register protocols.

    Each function is one client algorithm expressed over an abstract
    {!endpoint} — "broadcast a request to all [S] servers and hand me any
    [S − t] replies in arrival order" — so the *same algorithm body* runs
    on two execution backends: the discrete-event simulator
    ({!Cluster_base}, over {!Protocol.Round_trip}) and the live socket
    transport (the mux endpoints [Kv.Router] hands out, over real
    sockets).  The algorithms:
    the two-round write of LS97/Algorithm 1, the classic two-round read
    with write-back, the local-clock one-round write used by the
    single-writer and naive protocols, the naive one-round read, and the
    paper's one-round *fast read* built on the [admissible] predicate of
    DGLV/Algorithm 1. *)

type endpoint = { exec : Wire.req -> ((int * Wire.rep) list -> unit) -> unit }
(** One client's round-trip capability: [exec req k] broadcasts [req] to
    all servers and calls [k replies] once a quorum of [(server_index,
    reply)] pairs has arrived, in arrival order.  The continuation may
    start another round trip (the two-round algorithms nest execs); on
    the simulator it fires from the event loop, on the live transport
    from the process's one event loop, and the live [exec] returns to its caller
    once the whole chain has run. *)

type ctx = {
  writer_ep : int -> endpoint;  (** Endpoint of writer [i] (0-based). *)
  reader_ep : int -> endpoint;  (** Endpoint of reader [j] (0-based). *)
  s : int;  (** Number of servers. *)
  t : int;  (** Crash tolerance (quorum = [s - t]). *)
  r : int;  (** Number of readers (bounds the admissible degree). *)
}
(** Everything a client algorithm needs to know about the cluster it runs
    against, independent of how messages actually move. *)

val admissible :
  s:int ->
  t:int ->
  value:Wire.value ->
  replies:(int * Wire.rep) list ->
  degree:int ->
  bool
(** [admissible(v, Msg, a)] (Algorithm 1, line 32): does there exist a
    subset µ of the READACK replies such that every message in µ carries
    [v], [|µ| ≥ S − a·t], and at least [a] clients are common to the
    [updated] sets that µ's servers recorded for [v]?

    Faithful to the predicate including its degenerate regime: when
    [S − a·t ≤ 0] the empty µ satisfies it vacuously — this is exactly
    how the algorithm misbehaves when [R ≥ S/t − 2] (too many admissible
    degrees), which the `fig9` experiment exploits. *)

val max_current : (int * Wire.rep) list -> Wire.value
(** Largest [valᵢ] among READACK replies (initial value if none). *)

val max_queue : int
(** Upper bound on a reader's valQueue length after a merge. *)

val merge_queue : Wire.value list ref -> (int * Wire.rep) list -> Wire.value list
(** [merge_queue val_queue replies], a fast read's first step: fold
    every value in the READACK replies' vectors into [val_queue] (once
    per tag), keep its {!max_queue} largest values, descending, and
    return the distinct values the vectors carry, largest first.  The
    bound is the recency window a reader carries between rounds and
    mirrors the replica-side {!Replica.max_vector} bound: without it
    every QUERY grows with the length of the run. *)

val two_round_write :
  ctx ->
  writer:int ->
  payload:int ->
  last_written:Wire.value ref ->
  k:(Checker.Mw_properties.tag option -> unit) ->
  unit
(** Algorithm 1's writer: round 1 queries all servers (propagating the
    writer's last written value, the paper's [(read, maxTS)] message) and
    computes [maxTS]; round 2 updates [(maxTS + 1, wᵢ)] everywhere and
    waits for [S − t] ACKs.  Non-concurrent writes thus obtain strictly
    increasing timestamps (property MWA0). *)

val one_round_write :
  ctx ->
  writer:int ->
  wid:int ->
  payload:int ->
  clock:Tstamp.t ref ->
  learn:bool ->
  k:(Checker.Mw_properties.tag option -> unit) ->
  unit
(** A fast (single round-trip) write: picks [(clock.ts + 1, wid)] from
    purely local knowledge, updates all servers, waits for [S − t] ACKs.
    With [learn = true] the writer additionally folds the timestamps
    servers return into [clock] for *future* writes (the best-effort
    variant the W1R2 impossibility theorem dooms anyway); with a single
    writer and [learn = false] this is exactly ABD'95's fast write. *)

val two_round_read :
  ctx ->
  reader:int ->
  k:(int -> Checker.Mw_properties.tag option -> unit) ->
  unit
(** The classic slow read: round 1 queries all servers and selects the
    maximum value; round 2 writes that value back to [S − t] servers
    before returning it (preventing new/old inversions). *)

val one_round_read_max :
  ctx ->
  reader:int ->
  k:(int -> Checker.Mw_properties.tag option -> unit) ->
  unit
(** The naive fast read: one query round, return the maximum value seen.
    No write-back, no admissibility — the baseline whose new/old
    inversions the checker catches. *)

type read_probe = {
  returned : Tstamp.t;        (** Tag of the value returned. *)
  max_seen : Tstamp.t;        (** Largest timestamp among the replies. *)
  degree : int option;        (** Admissibility degree used, if any. *)
  candidates_skipped : int;   (** Values scanned past before returning. *)
  fallback : bool;            (** True if the Lemma-3 fallback fired (it
                                  must not — asserted in the tests). *)
}
(** Observation record for one fast read, for the Appendix-A lemma tests
    (e.g. Lemma 2: [returned.ts >= max_seen.ts - 1]; Lemma 3: no
    fallback). *)

val fast_read :
  ?probe:(read_probe -> unit) ->
  ctx ->
  reader:int ->
  val_queue:Wire.value list ref ->
  k:(int -> Checker.Mw_properties.tag option -> unit) ->
  unit
(** Algorithm 1's reader: sends its [valQueue] (so servers fold it in
    before replying), collects [S − t] READACKs, then returns the largest
    value admissible with some degree [a ∈ [1, R+1]].  The value queue is
    updated with everything seen, to be propagated by the next read.
    Termination: the queue's own maximum is always admissible with degree
    1 (Lemma 3), so the descending scan cannot fall off the end. *)

type writer_fn = payload:int -> k:(Checker.Mw_properties.tag option -> unit) -> unit
(** One writer's [write] operation, with its per-writer state already
    closed over. *)

type reader_fn = k:(int -> Checker.Mw_properties.tag option -> unit) -> unit
(** One reader's [read] operation, with its per-reader state (e.g. the
    valQueue) already closed over. *)

type algo = {
  new_writer : ctx -> writer:int -> writer_fn;
  new_reader : ctx -> reader:int -> reader_fn;
}
(** A whole client-side protocol, backend-agnostic: instantiating
    [new_writer]/[new_reader] allocates that client's private state
    (local clock, last-written value, valQueue) and returns its
    operation.  {!Registry.client_algo} names one per protocol; the
    simulator's {!Cluster_base} and the live transport both run exactly
    these. *)
