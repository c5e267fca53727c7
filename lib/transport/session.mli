(** Drive a register protocol over a live {!Cluster} and record the
    resulting history.

    The live analogue of {!Protocol.Runtime.run}: one OS thread per
    client runs the protocol's {!Registers.Client_core.algo} against
    register {!Cluster.register_key} over real sockets, every operation
    is recorded with monotonic {!Clock.now} timestamps, and
    the finished history feeds the very same atomicity checkers as the
    simulated runs — the live backend cross-checks the simulator and
    vice versa.

    Recording is contention-free: each client thread timestamps and logs
    its own operations privately (no shared recorder lock on the hot
    path); the per-client logs are merged into one {!Histories.History.t}
    after every thread has joined.  Round-trip accounting only counts
    rounds of operations that completed — rounds burned inside an
    operation that later aborted with [Unavailable] are discarded, so a
    crash mid-run cannot skew the Table-1 rounds columns. *)

type spec = {
  writers : int;
  readers : int;
  writes_per_writer : int;
  reads_per_reader : int;
  write_think : float;  (** Seconds between a writer's operations. *)
  read_think : float;   (** Seconds between a reader's operations. *)
}

val default_spec : spec
(** 2×2 clients, 20 writes / 40 reads each, no think time. *)

type result = {
  history : Histories.History.t;
      (** Timestamped in seconds since the session started, on the
          monotonic {!Clock.now}; checker-ready. *)
  duration : float;  (** Seconds from first invocation to last response. *)
  write_rounds : float;
      (** Mean round trips per completed write — 2.0 for the two-round
          writers, 1.0 for the fast ones (the paper's Table 1 column,
          measured on real sockets). *)
  read_rounds : float;  (** Mean round trips per completed read. *)
  late : int;  (** Replies arriving after their round trip completed. *)
  retries : int;
      (** Round-trip re-broadcasts across all clients — 0 on a healthy
          run, and the price of lossy links under a fault plan. *)
  unavailable : int;
      (** Clients that aborted because no quorum answered (0 whenever at
          most [tol] servers were killed). *)
  killed : int list;  (** Servers down by the end of the run. *)
  online : Check_sink.report option;
      (** Streaming checker report when the session ran with
          [~live_check:true]; [None] otherwise. *)
}

val run :
  ?kill_at:(float * int) list ->
  ?restart_at:(float * int * Cluster.restart_mode) list ->
  ?faults:Faults.t ->
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?live_check:bool ->
  ?on_violation:(string -> Checker.Witness.t -> unit) ->
  register:Protocol.Register_intf.t ->
  cluster:Cluster.t ->
  spec ->
  result
(** Run [spec] against [cluster] with [register]'s client algorithm.
    [kill_at] schedules real crashes: [(secs, server)] kills [server]
    that many seconds into the run.  [restart_at] brings killed servers
    back: [(secs, server, mode)] calls {!Cluster.restart} then — kills
    and restarts replay as one time-ordered schedule.  [faults] applies
    a fault plan to every client endpoint of this session (the plan is
    {!Faults.arm}ed at session start; servers use the plan their
    cluster was started with).  [live_check] streams every completed
    operation through a {!Check_sink} into the {!Checker.Online}
    checker while the run is in flight — contention-free, so
    throughput is unaffected — surfacing violations through
    [on_violation] as they happen and a final report in
    [result.online].  Raises [Invalid_argument] if [spec] exceeds the
    protocol's writer bound ({!Registers.Registry.max_writers}). *)
