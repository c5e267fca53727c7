(** Batch atomicity checker for register histories with unique written
    values.

    Atomicity (Definition 2.1) asks for a sequential permutation π of the
    operations that respects real-time order and in which every read
    returns the latest preceding write.  With pairwise-distinct written
    values (our workloads guarantee this) every read names the unique
    write it reads from, and atomicity reduces to the ordering
    obligations between writes, for reads-from mapping ρ and real-time
    order ≺:
    - E1: w ≺ w'                      ⇒ w before w'
    - E2: ρ(r) = w, w' ≺ r, w' ≠ w    ⇒ w' before w
    - E3: r₁ ≺ r₂, ρ(r₁) ≠ ρ(r₂)      ⇒ ρ(r₁) before ρ(r₂)
    - E4: ρ(r) = w, r ≺ w'            ⇒ w before w'

    together with the local conditions "no read from the future" and "no
    write entirely between ρ(r) and r".  The history is atomic iff the
    local conditions hold and the obligations are acyclic, which the
    zone check of {!Online} decides (Gibbons & Korach 1997).  This module
    is feed-all-then-finalize over that core.  The brute-force
    {!Linearizability} oracle cross-validates it in the property-test
    suite. *)

open Histories

val initial_write : Op.t
(** {!Online.initial_write}: the virtual write of
    {!History.initial_value} that precedes every real operation (the
    paper's [wr₀,⊥]). *)

val check : History.t -> (unit, Witness.t) result
(** Verdict for a history.  Pending reads are ignored (they impose no
    obligation); pending writes participate as writes that may take
    effect.  The witness is the first read of an unwritten value, else
    the first future or stale read (both in history order), else an
    {!Witness.Ordering_cycle} over two conflicting writes.  Raises
    [Invalid_argument] if the history is not well-formed or written
    values are not unique. *)

val is_atomic : History.t -> bool

val linearization : History.t -> Op.t list option
(** A constructive witness: when the history is atomic, a sequential
    permutation π satisfying Definition 2.1 (real-time order respected,
    every read returns the latest preceding write; the virtual initial
    write is omitted from the output).  Built by ordering the clusters
    (a write and the reads of its value) topologically under the zone
    relation and placing each read after its write, by invocation; the
    result is re-validated against the register specification before
    being returned, so a [Some] answer is self-certifying.  [None] when
    the history is not atomic. *)
