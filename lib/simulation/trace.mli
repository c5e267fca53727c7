(** Append-only event trace.

    Records what happened during a run (sends, deliveries, drops, crashes,
    protocol-level notes) with virtual timestamps.  Used for debugging,
    for the determinism regression test (same seed ⇒ byte-identical
    trace), and for the worked examples that print executions. *)

type t

val create : unit -> t

val add : t -> time:float -> tag:string -> string -> unit

val length : t -> int

val fingerprint : t -> int
(** A cheap structural hash of the whole trace, for determinism tests. *)
