(** Candidate read strategies for fast-write (W1R2) implementations.

    In the full-info model a W1R2 implementation is characterised by what
    its two-round read returns as a function of its {!Exec_model.view} —
    writes are one blind update round, servers are append-only logs, so
    the read's decision function is the only degree of freedom left.
    Theorem 1 says *no* decision function yields atomicity; the
    {!W1r2_theorem} driver demonstrates it per strategy by constructing a
    violating execution.

    A strategy must return 1 or 2 (the digits written by W₁ and W₂; in
    every execution the proof uses, both writes finished before the reads
    began, so returning the initial value is never legal). *)

type t = { name : string; decide : Exec_model.view -> int }

val decide : t -> Exec_model.view -> int
(** Evaluate, checking the result is 1 or 2. *)

(** {1 Natural strategies} *)

val majority_last : t
(** The digit that is last on a majority of round-2 servers (ties → 2). *)

val first_server_rules : t
(** The last digit on the lowest-numbered server the read reached. *)

val natural : t list
(** The two above plus seven more decision rules (last-unanimous-else-2
    and -1, weighted-last, round-1 majority, latest-arrival,
    reader-aware, pessimistic-quorum; see [strategy.ml]). *)

(** {1 Randomised strategies} *)

val seeded : int -> t
(** A deterministic pseudo-random strategy: returns the forced digit on
    unanimous views (so the sequential anchors hold and the chain
    machinery is actually exercised) and a view-hash-dependent digit
    otherwise. *)

val seeded_wild : int -> t
(** Fully arbitrary: hash of the whole view decides.  Usually dies on a
    sequential anchor — exercising the driver's other exit. *)
