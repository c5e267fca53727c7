(** Lock-ownership inference over thread-shared cells.

    For each shared cell, the set of locks held at every access site
    (lexical held sets widened by an optimistic interprocedural
    held-at-entry fixpoint) elects an owner by majority co-occurrence.
    Fully covered cells land in the [--lock-map] artifact; partially
    covered cells yield SHARED-ACCESS findings at each uncovered site;
    uncovered bool signal flags yield ATOMIC-DISCIPLINE findings;
    cells on [Rules.lock_free_allow] are reported in the artifact's
    lock-free section instead of the findings. *)

val infer : Rules.state -> Finding.t list * string * string list
(** [(findings, lock_map_text, stale_allow)], where [stale_allow] lists
    the [Rules.lock_free_allow] patterns that justified no thread-shared
    cell.  Deterministic under any file order: cells, sites and the
    fixpoint are all order-independent. *)
