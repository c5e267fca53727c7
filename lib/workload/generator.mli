(** Randomized workload generation.

    Turns a compact spec into concrete client plans: per-operation think
    times drawn from an exponential distribution, jittered client start
    times, and optional read-heavy or write-heavy mixes.  Deterministic
    in the seed, like everything else in the simulator. *)

open Protocol

type spec = {
  writers : int;
  readers : int;
  writes_per_writer : int;
  reads_per_reader : int;
  mean_think : float;     (** Mean think time between a client's ops. *)
  start_spread : float;   (** Client start times uniform in [0, spread). *)
  seed : int;
}

val default : spec
(** 2 writers × 3 writes, 2 readers × 5 reads, mean think 10, spread 5. *)

val plans : spec -> Runtime.plan list
(** One plan per client, think times exponential with the given mean. *)
