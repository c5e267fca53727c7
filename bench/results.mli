(** BENCH_results.json, declared once.

    The file is one value of {!t} in one fixed layout: the bench prints
    it with {!write}, and the validator accepts a file only when
    {!of_string} reads it back and {!errors} finds nothing. *)

type sweep = {
  runs : int;
  broken : int;  (** non-atomic runs *)
  seq_s : float;  (** median sequential sweep, seconds *)
  par_s : float;  (** median sweep on the pool, seconds *)
  domains : int;
  speedup : float;  (** median of paired per-round ratios *)
}
(** The T1 sweep timed sequentially and on the domain pool. *)

type t = {
  recommended_domains : int;  (** [Domain.recommended_domain_count ()] *)
  wall_clock : sweep;
  micro_ns_per_run : (string * float) list;  (** bechamel estimate per test *)
}

val errors : t -> string list
(** Every broken bound as ["key: message"]; [[]] when none is.  Counts
    are [>= 0]; durations, domain counts, the speedup and every estimate
    are [> 0] and finite (a NaN fails); the estimates are non-empty and
    each name prints without escapes. *)

val to_string : t -> string
(** The file's bytes: the header, [wall_clock] and [micro_ns_per_run]
    keys in that order, one member per line, two spaces of indent per
    level.  Integral numbers print bare, others in six significant
    digits, and the speedup is first rounded to two decimals. *)

val of_string : string -> (t, string) result
(** Reads back exactly what {!to_string} prints: [Error] on any other
    byte sequence, naming where reading stopped or the first line that
    differs from the value's own print. *)

val write : string -> t -> unit
(** Overwrite the file at the path with {!to_string}.  [Invalid_argument]
    naming every error, and the file left untouched, when {!errors} is
    not empty. *)
