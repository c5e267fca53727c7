(** The atomicity core: the zone check over a stream of completed
    operations.  {!Atomicity.check} is feed-all-then-finalize over this
    module; the live sinks feed it as operations complete, with
    resident memory bounded by the operations in flight.

    {2 Zones}

    A {e cluster} is a write together with the reads that return its
    value (written values are unique).  Summarize cluster [u] by

    - [a(u)]: the earliest response among its operations, and
    - [b(u)]: the latest invocation among its operations.

    Some operation of [u] precedes some operation of [v] iff
    [a(u) < b(v)], and each such pair is one of the E1–E4 ordering
    obligations between writes (write/write, write/read, read/read,
    read/write).  Clusters [u ≠ v] {e conflict} iff [a(u) < b(v)] and
    [a(v) < b(u)]: a 2-cycle of obligations.  Every obligation cycle
    contains one: let [m] have the least [a] on the cycle and [p] its
    predecessor; without a 2-cycle [b(p) ≤ a(m)], so [p]'s own
    predecessor [q] has [a(q) < b(p) ≤ a(m)], contradicting the choice
    of [m].  A history of unique written values is therefore atomic iff
    no read precedes its own write and no two clusters conflict
    (Gibbons & Korach, "Testing shared memories", SIAM J. Comput. 1997).

    {2 Feed contract}

    - Written values are unique and never
      {!Histories.History.initial_value} ([Invalid_argument] otherwise).
    - Each process feeds its operations in program order; processes may
      interleave arbitrarily.
    - Every operation fed after [advance ~watermark:w] invokes at or
      after [w].  The sinks derive [w] as the minimum invocation time
      over in-flight operations, so the contract holds by construction.

    {2 Feed}

    An operation joins its cluster and updates [a] and [b]; the changed
    cluster is tested against the resident clusters.  A read that
    precedes its own write is a {!Witness.Future_read}; a read with a
    resident write lying entirely between its write and itself is a
    {!Witness.Stale_read}; any other conflict is a
    {!Witness.Ordering_cycle} naming the two writes.  A read whose value
    has no resident write parks until the write arrives.

    {2 Retirement}

    Under watermark [W], a cluster [u] retires once some write that
    responded before [W] was invoked after [u]'s write responded.  [u]
    can then never change: every later operation invokes at or after
    [W], so a later read of [u]'s value is stale.  It parks and is
    flagged as a ["stale-or-unwritten-read"] {!Witness.Property} once
    its response falls behind the watermark (or at {!finalize}).  Also
    [a(u) < W].  Retired clusters fold into one number,
    [retired_b] = the largest [b] among them.  When a resident cluster
    [v] changes later, the change brings an operation invoked at or
    after [W], so [b(v) > a(u)] for every retired [u].  Hence [v]
    conflicts with some retired cluster iff [a(v) < retired_b], and that
    is reported as the ["retired-ordering-cycle"] {!Witness.Property}.
    Verdicts are exact under any sequence of [advance] calls; only the
    witness kind can differ from the batch checker's.

    {2 Collapse and the resident count}

    A key whose only resident cluster has every operation responded
    before [W] (and that has no parked read) {e collapses}: it holds the
    cluster's write and its [a], [b] plus [retired_b], and no operation
    counts as resident.  {!resident} counts the operations fed since
    the instance last collapsed that sit in resident clusters, plus the
    parked reads.  The virtual initial write never counts. *)

open Histories

type t

val initial_write : Op.t
(** The virtual write of {!History.initial_value} that precedes every
    real operation (the paper's [wr₀,⊥]). *)

val between : write:Op.t -> read:Op.t -> Op.t -> bool
(** [between ~write ~read w'] holds when [w'] is another write lying
    entirely between [write] and [read] in real time: a write the read
    missed. *)

val read_violation :
  writes:Op.t Seq.t -> Op.t -> Op.t -> Witness.reason option
(** [read_violation ~writes r w], for a read [r] returning [w]'s value:
    {!Witness.Future_read} if [r] precedes [w], else
    {!Witness.Stale_read} naming the first write of [writes] that lies
    {!between} them, else [None]. *)

val create : unit -> t
(** A fresh checker holding only the virtual initial write. *)

val feed : t -> Op.t -> unit
(** Consume one operation.  Reads without a response are ignored (they
    impose no obligation); writes without a response participate as
    writes that may take effect.  After the first violation the stream
    is only counted, not analysed. *)

val advance : t -> watermark:float -> unit
(** Raise the watermark (monotonic; lower values are ignored), flag
    parked reads that can no longer resolve, retire superseded clusters
    and collapse a quiescent key. *)

val finalize : t -> (unit, Witness.t) result
(** End of stream: remaining parked reads become
    {!Witness.Unwritten_value} witnesses (["stale-or-unwritten-read"]
    once a cluster has retired), and the verdict is returned. *)

val verdict : t -> (unit, Witness.t) result
(** The verdict so far, without ending the stream. *)

val resident : t -> int
(** Operations currently counted as resident (see above). *)

val peak_resident : t -> int
(** High-water mark of {!resident}: the checker's peak window. *)

val ops_seen : t -> int

(** Per-key multiplexing for the sharded KV plane: one instance per
    key, created on first touch, advancing under one shared watermark.
    A collapsed key counts in {!keys}, not in {!resident}. *)
module Keyed : sig
  type nonrec t

  val create : ?on_violation:(string -> Witness.t -> unit) -> unit -> t
  (** [on_violation] fires once per key, when that key's verdict first
      turns — the near-real-time hook the sinks use to surface
      violations mid-run. *)

  val feed : t -> key:string -> Op.t -> unit
  val advance : t -> watermark:float -> unit

  val finalize : t -> (string * (unit, Witness.t) result) list
  (** Per-key verdicts, sorted by key. *)

  val peak_resident : t -> int
  val ops_seen : t -> int
  val violations : t -> (string * Witness.t) list
  val keys : t -> int
end
