(** Live-checking sink: a contention-free bridge from client threads
    to one {!Checker.Online} thread.

    Each client thread owns a {!port}.  At invocation it publishes the
    operation's invocation time through {!invoked}; at completion it
    pushes the finished operation with {!completed} (a lock-free
    CAS-push onto the port's private stack) and clears the marker.
    The checker thread periodically computes the GC watermark as the
    minimum over all in-flight markers (capped by the current time)
    {e before} exchange-draining the stacks, feeds the drained
    operations to a per-key {!Checker.Online.Keyed} instance, and
    advances it.  Clients never block on the checker and never share a
    cache line beyond the two atomics, so live checking does not move
    the measured client throughput.

    Lifecycle: {!create}, then one {!port} per client thread (before
    {!start}), {!start}, run the workload, join the clients, {!stop}. *)

open Histories

type t

type port

type report = {
  checked : int;  (** operations fed through the checker *)
  keys : int;  (** distinct keys checked *)
  peak_window : int;
      (** high-water mark of resident operations across all keys: ops
          in clusters not yet collapsed plus parked reads
          ({!Checker.Online.resident}).  A key whose last cluster
          settled behind the watermark counts in [keys], not here, so
          the window follows the ops in flight *)
  batches : int;  (** non-empty drain cycles *)
  busy : float;  (** seconds spent feeding/advancing/finalizing *)
  checker_ops_per_sec : float;  (** [checked /. busy] *)
  violations : (string * Checker.Witness.t) list;
      (** keys whose verdict turned during the run, in firing order *)
  verdicts : (string * (unit, Checker.Witness.t) result) list;
      (** final per-key verdicts, sorted by key *)
}

val create :
  ?on_violation:(string -> Checker.Witness.t -> unit) ->
  ?interval:float ->
  now:(unit -> float) ->
  unit ->
  t
(** [now] must be the same clock the client threads use to timestamp
    operations (monotonic across threads).  [interval] is the checker
    thread's sleep between drains (default 1ms: short enough that the
    window stays tight under continuous load).  [on_violation] fires
    from the checker thread the moment a key's verdict turns. *)

val port : t -> port
(** Register a client port.  Must be called before {!start}. *)

val invoked : port -> float
(** Publish the in-flight marker and return the invocation timestamp
    to record for the operation.  The marker is published first, so
    the watermark can never overtake an unpushed operation. *)

val completed : port -> key:string -> Op.t -> unit
(** Push the operation in its final state and clear the in-flight
    marker.  An operation abandoned mid-flight (e.g. the client
    aborted on [Unavailable]) is pushed with [resp = None]: a pending
    write still participates as a write that may take effect, a
    pending read is ignored.  The [id] field is overwritten with a
    port-unique id. *)

val start : t -> unit
(** Spawn the checker thread. *)

val stop : t -> report
(** Signal the checker thread, join it, drain any remaining
    completions, finalize every key and return the report.  Call only
    after all client threads have joined. *)

val atomic : report -> bool
(** No violations fired and every final verdict is [Ok ()]. *)
