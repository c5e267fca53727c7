(** UNUSED-EXPORT: the library surface nothing runs.

    Two findings, both anchored in a [lib/**/*.mli]:
    - an exported [val] that no [.ml] outside its own module references
      (every root counts: lib, bin, bench, examples, perfbench, test);
    - a library module whose values, types and constructors are
      referenced only from [test/] (a facade's [module X = …] alias is
      not a reference).

    The census is lexical and errs towards "used": an unqualified name
    counts for every module opened in scope, per-file and structure-level
    module aliases are resolved, and [(module M)], [include M] and
    [F (M)] use all of [M]. *)

val check :
  keep:(string * string) list ->
  intfs:Source.intf list ->
  Source.t list ->
  Finding.t list * string list
(** [(findings, stale_keep)]: the findings no [keep] pattern (see
    [Rules.export_keep]) excuses, and the [keep] patterns that excuse
    no finding.  Both are empty when [intfs] is: without interfaces the
    rule has nothing to judge. *)
