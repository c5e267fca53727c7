(** The live workload driver: every live run — a YCSB keyspace soak or a
    single register with fixed writers and readers, healthy or under a
    seeded storm of dropped, delayed and duplicated frames with server
    kills and restarts ([mwreg live --drop … --kill 4@0.05..0.45]) —
    goes through {!run}.

    One OS thread per client; each draws keys (and, for mixed clients,
    operation kinds) from its own seeded generator and runs the chosen
    registry protocol per key through the placement {!Router}.  Every
    operation's latency is recorded in a constant-memory histogram.
    Atomicity has one switch, [run ~live_check]: on, every operation on
    every key streams through a {!Transport.Check_sink}; off, no
    operation is recorded or checked.  Round-trip accounting counts
    completed operations only: rounds burned inside an operation that
    later aborted with [Unavailable] are discarded, so a crash mid-run
    cannot skew the Table-1 rounds columns. *)

type roles =
  | Mixed of int
      (** [n] YCSB clients, each both writing and reading (per
          [spec.mix]); client [i] is writer [i] and reader [i]. *)
  | Split of { writers : int; readers : int }
      (** Writers that only write ([ops_per_client] writes each) and
          readers that only read ([2 × ops_per_client] reads each),
          numbered like {!Protocol.Topology}: writer [i] is node [s + i],
          reader [j] node [s + writers + j]. *)

type spec = {
  roles : roles;
  ops_per_client : int;
  keys : int;  (** keyspace size (ranks 0..keys-1) *)
  dist : Workload.Ycsb.dist;
  mix : Workload.Ycsb.mix;  (** ignored by [Split] roles *)
  seed : int;
  think : float;  (** per-op pause in seconds; 0 = closed loop *)
}

val default_spec : spec

val register_spec : ?think:float -> writers:int -> readers:int -> int -> spec
(** [register_spec ~writers ~readers ops]: one register (one key)
    under [Split] roles — [ops] writes per writer, [2 × ops] reads per
    reader. *)

type result = {
  duration : float;  (** Seconds from run start to the last join. *)
  ops : int;  (** completed operations across all clients *)
  throughput : float;  (** completed operations per second *)
  all_lat : Workload.Stats.summary;
  read_lat : Workload.Stats.summary;
  write_lat : Workload.Stats.summary;  (** latencies in seconds *)
  write_rounds : float;
      (** Mean round trips per completed write — 2.0 for the two-round
          writers, 1.0 for the fast ones (the paper's Table 1 column,
          measured on real sockets). *)
  read_rounds : float;  (** Mean round trips per completed read. *)
  starved : int;
      (** clients aborted by [Endpoint.Unavailable] (0 whenever at most
          [tol] servers of a group were down) *)
  late : int;  (** Replies arriving after their round trip completed. *)
  retries : int;
      (** Round-trip re-broadcasts across all clients — 0 on a healthy
          run, and the price of lossy links under a fault plan. *)
  dropped : int;  (** mux drops (unknown client / stale key) *)
  group_ops : int array;  (** operations routed to each shard group *)
  keys_touched : int;  (** distinct keys operated on *)
  online : Transport.Check_sink.report option;
      (** Streaming checker report when the run had
          [~live_check:true]; [None] otherwise. *)
}

type crash = Kill | Restart of Transport.Cluster.restart_mode

val run :
  ?crashes:(float * int * int * crash) list ->
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?faults:Transport.Faults.t ->
  ?register:Protocol.Register_intf.t ->
  ?live_check:bool ->
  ?on_violation:(string -> Checker.Witness.t -> unit) ->
  cluster:Kv_cluster.t ->
  spec ->
  result
(** [run ~cluster spec] drives one thread per client against the
    sharded keyspace.  [register] defaults to the multi-writer ABD
    descendant ({!Registers.Registry.abd_mwmr}); protocols with a writer
    bound (e.g. single-writer naive registers) are rejected when more
    clients than the bound may write.  [crashes] is the run's crash
    schedule: [(secs, group, server, Kill)] kills server [server] of
    shard group [group] that many seconds into the run, and
    [(secs, group, server, Restart mode)] brings it back through
    {!Transport.Cluster.restart}; one thread replays the schedule in
    time order (list order between equal times).  [faults] installs a
    client-side fault plan (e.g. a {!Transport.Geo} profile's latency
    rules, a storm's drop/delay/duplicate rules, or both) on every
    per-group plane and is {!Transport.Faults.arm}ed at run start, so
    its rule windows count from there.  [live_check] streams {e every}
    key's completed and aborted operations through a
    {!Transport.Check_sink} into the {!Checker.Online} checker while the
    run is in flight, in O(window) memory; violations surface through
    [on_violation] as they happen and the report lands in
    [result.online].  Raises [Invalid_argument], before any thread
    starts, on a client count below one (no split writer or reader, or
    [Mixed n] with [n < 1]), a negative writer or reader count, fewer
    than one key, more writers than [register] accepts, and a [crashes]
    entry whose group is outside [0..groups-1] or whose server is
    outside [0..S-1]. *)
