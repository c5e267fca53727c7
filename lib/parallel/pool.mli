(** A work-sharing domain pool for embarrassingly parallel sweeps.

    Every experiment in this reproduction — Table 1 verdicts, the
    schedule hunter, the exhaustive small-world sweep — is thousands of
    *independent* simulation runs, each with its own engine, RNG and
    history.  This pool fans such batches out over OCaml 5 domains using
    only the stdlib ([Domain], [Mutex]): no work stealing, just a shared
    cursor that idle workers pull the next task index from, so uneven
    task costs balance automatically.

    Determinism contract: results are assembled *by task index*, never
    by completion order, so [map pool f xs = List.map f xs] for any pure
    (or state-disjoint) [f] — parallel output is byte-identical to
    sequential output.  Tasks must not share mutable state with each
    other; sharing with the caller is safe only after the batch returns.

    Exceptions: if one or more tasks raise, the batch stops handing out
    new tasks and the exception from the smallest failing task index
    (among those that ran) is re-raised in the caller with its
    backtrace. *)

type t

val default_domains : unit -> int
(** The [MWREG_DOMAINS] environment variable if set to a positive
    integer, otherwise [Domain.recommended_domain_count ()]. *)

val create : ?domains:int -> unit -> t
(** A pool of up to [domains] workers (the calling domain counts as one;
    the rest are spawned per batch).  Defaults to {!default_domains};
    values below 1 are clamped to 1 and values above
    [Domain.recommended_domain_count ()] are clamped down to it —
    oversubscribing cores only adds GC coordination and context-switch
    cost, so a pool is never slower than the sequential loop.  With 1
    effective domain every batch runs sequentially in the caller.
    Batches of at most 2 tasks always run inline: a domain spawn costs
    more than it could save there. *)

val domains : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element, work-shared across the
    pool's domains, returning results in input order. *)

val map_reduce :
  t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** [map_reduce pool ~map ~reduce ~init xs] maps in parallel, then folds
    the results left-to-right in input order — deterministic even for
    non-commutative [reduce]. *)
