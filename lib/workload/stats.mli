(** Latency statistics over histories.

    Operation latency is response time minus invocation time on the
    simulator's virtual clock; under a given latency model this directly
    reflects round-trip counts, which is the paper's cost measure
    ("the latency of read and write operations is mainly decided by the
    number of round-trips"). *)

open Histories

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val of_latencies : float list -> summary

val read_latencies : History.t -> float list
(** Latencies of completed reads. *)

val write_latencies : History.t -> float list

val reads : History.t -> summary
val writes : History.t -> summary

val pp_summary : Format.formatter -> summary -> unit

(** Constant-memory latency histogram: 64 log-scaled bins per decade
    over [1e-7s, 1e3s) plus underflow/overflow, so a million-op soak
    holds ~5KB per series instead of a million-entry list.  Count,
    sum (hence mean), min and max are exact; percentiles are read off
    the covering bin's geometric midpoint, within 10^(1/128) - 1
    (< 1.9%) relative error of the true order statistic, using the
    same rank convention as {!of_latencies}. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val merge : into:t -> t -> unit
  (** Fold [src] into [into] — how per-thread histograms aggregate
      after the client threads join. *)

  val summary : t -> summary
end
