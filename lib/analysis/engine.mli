(** The mwlint engine: run every rule over a set of parsed sources and
    produce the sorted, deduplicated finding list plus the inferred
    lock-ownership map. *)

type result = {
  findings : Finding.t list;
  lock_map : string;
  stale_allow : string list;
      (** [Rules.lock_free_allow] patterns that matched no thread-shared
          cell of the analysed sources. *)
  stale_keep : string list;
      (** [export_keep] patterns that excused no UNUSED-EXPORT finding. *)
}

val run :
  ?intfs:Source.intf list ->
  ?export_keep:(string * string) list ->
  Source.t list ->
  result
(** Decl pre-pass over all sources, single-file rules on each, then the
    cross-file passes: LOCK-ORDER over the union of function summaries,
    escape analysis, lock-ownership inference (SHARED-ACCESS /
    ATOMIC-DISCIPLINE) and, given the lib interfaces [intfs],
    UNUSED-EXPORT ([export_keep] defaults to [Rules.export_keep]).
    Findings come back sorted by (file, line, col, rule) with exact
    duplicates removed; [lock_map] is the reviewable
    lock -> guarded-cells artifact for [--lock-map]. *)

val analyze : Source.t list -> Finding.t list
(** [run] without the lock map. *)
