(** The mwlint engine: run every rule over a set of parsed sources and
    produce the sorted, deduplicated finding list plus the inferred
    lock-ownership map. *)

type result = {
  findings : Finding.t list;
  lock_map : string;
  stale_allow : string list;
      (** [Rules.lock_free_allow] patterns that matched no thread-shared
          cell of the analysed sources. *)
}

val run : Source.t list -> result
(** Decl pre-pass over all sources, single-file rules on each, then the
    cross-file passes: LOCK-ORDER over the union of function summaries,
    escape analysis, and lock-ownership inference (SHARED-ACCESS /
    ATOMIC-DISCIPLINE).  Findings come back sorted by (file, line, col,
    rule) with exact duplicates removed; [lock_map] is the reviewable
    lock -> guarded-cells artifact for [--lock-map]. *)

val analyze : Source.t list -> Finding.t list
(** [run] without the lock map. *)

val analyze_string : path:string -> string -> Finding.t list
(** [analyze] on one inline snippet — the test-fixture entry point.
    [path] participates in the path-scoped allowlists exactly as a real
    file's path would. *)
