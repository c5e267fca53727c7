(** Quantifying inconsistency — the paper's §7 future work, implemented.

    "We will fix fast implementations in the first place, and then
    quantify how much data inconsistency will be introduced when strictly
    guaranteeing atomicity is impossible."

    The metric is *version staleness*, the standard measure of the
    k-atomicity / Δ-atomicity line of work (the paper's refs [25, 28]): a
    completed read that returns the value of write [w] has staleness [k]
    if exactly [k] other writes finished entirely between [w]'s response
    and the read's invocation.  An atomic read has staleness 0; a
    2-atomic ("almost strong") register bounds staleness by 1; the naive
    fast-write register's staleness grows with write contention — which
    is precisely the trade the `fw` benchmark quantifies. *)

open Histories

val max_staleness : History.t -> int
(** 0 for atomic-by-reads histories, [max_int] if some read returned an
    unwritten value. *)

val histogram : History.t -> (int * int) list
(** [(staleness, reads-with-it)], ascending. *)

val stale_fraction : History.t -> float
(** Fraction of completed reads with staleness ≥ 1 — the "violation
    rate" of refs [25, 28].  0.0 when there are no completed reads. *)

val bounded_by : History.t -> k:int -> bool
(** Every read returns one of the last [k+1] values ([staleness ≤ k]) —
    the per-read face of k-atomicity.  [bounded_by h ~k:0] is implied by
    atomicity; the converse fails in the presence of new/old inversions,
    which this metric deliberately does not count (use
    {!Atomicity.check} for the full story). *)
