(** UNUSED-EXPORT: the library surface nothing runs.

    Three findings, all anchored in a [lib/**/*.mli]:
    - an exported [val] that no [.ml] outside its own module references
      (every root counts: lib, bin, bench, examples, perfbench, test);
    - an exported type that no file outside its own module names — not
      the type, nor any of its constructors or labels — and that no
      value or other type of its own interface mentions (such a type
      is judged through those items);
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
