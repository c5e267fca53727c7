(** The YCSB-shaped closed-loop workload driver over a sharded keyspace.

    One OS thread per client; each draws keys and operation kinds from
    its own seeded generator and runs the chosen registry protocol
    per key through the placement {!Router}.  Every operation's latency
    is recorded; full operation histories only for the hottest
    [sample_keys] ranks, so {!Checker.Atomicity} can pass per-key
    verdicts without the driver holding millions of operations. *)

type spec = {
  clients : int;
  ops_per_client : int;
  keys : int;  (** keyspace size (ranks 0..keys-1) *)
  dist : Workload.Ycsb.dist;
  mix : Workload.Ycsb.mix;
  seed : int;
  sample_keys : int;
      (** record + atomicity-check the first [sample_keys] ranks *)
  think : float;  (** per-op pause in seconds; 0 = closed loop *)
}

val default_spec : spec

type key_verdict = {
  vkey : string;
  vops : int;  (** operations recorded against this key *)
  atomic : bool;
  witness : Checker.Witness.t option;  (** present iff not [atomic] *)
}

type result = {
  duration : float;
  ops : int;  (** completed operations across all clients *)
  throughput : float;  (** completed operations per second *)
  all_lat : Workload.Stats.summary;
  read_lat : Workload.Stats.summary;
  write_lat : Workload.Stats.summary;  (** latencies in seconds *)
  verdicts : key_verdict list;  (** one per sampled key, rank order *)
  starved : int;  (** clients aborted by [Endpoint.Unavailable] *)
  late : int;
  retries : int;
  dropped : int;  (** mux demux drops (unknown client / stale key) *)
  group_ops : int array;  (** operations routed to each shard group *)
  keys_touched : int;  (** distinct keys operated on *)
  online : Transport.Check_sink.report option;
      (** Streaming checker report when the run had
          [~live_check:true]; [None] otherwise. *)
}

val run :
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?faults:Transport.Faults.t ->
  ?register:Protocol.Register_intf.t ->
  ?live_check:bool ->
  ?on_violation:(string -> Checker.Witness.t -> unit) ->
  cluster:Kv_cluster.t ->
  spec ->
  result
(** [run ~cluster spec] drives [spec.clients] threads of
    [spec.ops_per_client] operations each against the sharded keyspace.
    [register] defaults to the multi-writer ABD descendant
    ({!Registers.Registry.abd_mwmr}); protocols with a writer bound
    (e.g. single-writer naive registers) are rejected unless the mix is
    read-only.  [live_check] streams {e every} key's completed
    operations through a {!Transport.Check_sink} into the
    {!Checker.Online} checker while the run is in flight — the
    checker's window stays bounded, so unlike the sampled batch path
    this covers the whole keyspace; violations surface through
    [on_violation] as they happen and the report lands in
    [result.online].  [faults] installs a client-side fault plan (e.g. a
    {!Transport.Geo} profile's latency rules) on every per-group plane.
    Raises [Invalid_argument] on bad specs. *)
