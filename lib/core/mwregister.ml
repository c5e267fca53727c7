(** Public facade of the multi-writer atomic register library.

    One [open Mwregister] (or qualified use) reaches every layer:

    - {!Sim}, {!Net}: the discrete-event substrate;
    - {!Op}, {!History}: executions and the atomicity specification;
    - {!Atomicity}, {!Online}, {!Linearizability}, {!Consistency},
      {!Mw_properties}: the checkers ({!Atomicity} is the batch face of
      {!Online}'s streaming zone check);
    - {!Bounds}: Table 1's predicates;
    - {!Env}, {!Runtime}, {!Register_intf}: running protocols;
    - {!Registry} and the individual protocol modules;
    - {!Impossibility} namespace: the mechanized proofs;
    - {!Adversary}, {!Threshold}, {!Stats}: workloads and experiments;
    - {!Pool}: the work-sharing domain pool for parallel sweeps;
    - {!Live} namespace: the TCP transport — the same algorithms over
      real sockets;
    - {!Kv} namespace: the sharded multi-register keyspace over the
      live transport, with {!Ycsb} supplying its workload shapes.

    The convenience entry point {!run_and_check} wires the common loop:
    build an environment, run a workload against a protocol, and return
    the history with all checker verdicts. *)

module Sim = Simulation.Engine
module Rng = Simulation.Rng
module Latency = Simulation.Latency
module Net = Simulation.Network

module Op = Histories.Op
module History = Histories.History
module Recorder = Histories.Recorder
module Serial = Histories.Serial

module Witness = Checker.Witness
module Atomicity = Checker.Atomicity
module Linearizability = Checker.Linearizability
module Consistency = Checker.Consistency
module Mw_properties = Checker.Mw_properties
module Staleness = Checker.Staleness
module Online = Checker.Online

module Bounds = Quorums.Bounds

module Topology = Protocol.Topology
module Env = Protocol.Env
module Control = Protocol.Control
module Runtime = Protocol.Runtime
module Register_intf = Protocol.Register_intf

module Registry = Registers.Registry
module Tstamp = Registers.Tstamp

module Impossible = struct
  module Token = Impossibility.Token
  module Exec_model = Impossibility.Exec_model
  module Strategy = Impossibility.Strategy
  module Chain_alpha = Impossibility.Chain_alpha
  module Chain_beta = Impossibility.Chain_beta
  module Zigzag = Impossibility.Zigzag
  module W1r2_theorem = Impossibility.W1r2_theorem
  module Sieve = Impossibility.Sieve
  module K_round = Impossibility.K_round
  module Realizability = Impossibility.Realizability
  module Report = Impossibility.Report
end

module Pool = Parallel.Pool

module Live = struct
  module Clock = Transport.Clock
  module Netio = Transport.Netio
  module Codec = Transport.Codec
  module Server = Transport.Server
  module Mux = Transport.Mux
  module Endpoint = Transport.Endpoint
  module Cluster = Transport.Cluster
  module Check_sink = Transport.Check_sink
  module Faults = Transport.Faults
  module Geo = Transport.Geo
end

module Kv = struct
  module Placement = Kv.Placement
  module Keyspace = Registers.Keyspace
  module Cluster = Kv.Kv_cluster
  module Router = Kv.Router
  module Session = Kv.Kv_session
end

module Adversary = Workload.Adversary
module Threshold = Workload.Threshold
module Stats = Workload.Stats
module Generator = Workload.Generator
module Exhaustive = Workload.Exhaustive
module Hunter = Workload.Hunter
module Ycsb = Workload.Ycsb

let version = "1.0.0"

type verdict = {
  outcome : Runtime.outcome;
  consistency : Consistency.level;
  atomicity_witness : Witness.t option;
  mwa_failures : (string * Witness.t) list;
  wait_free : bool;  (** Every scheduled operation completed. *)
}

let run_and_check ?(seed = 42) ?latency ?adversary ~register ~s ~t ~w ~r plans =
  let env = Env.make ~seed ?latency ~s ~t ~w ~r () in
  let outcome = Runtime.run ~register ~env ~plans ?adversary () in
  let history = outcome.Runtime.history in
  let consistency = Consistency.classify history in
  let atomicity_witness =
    match Atomicity.check history with Ok () -> None | Error w -> Some w
  in
  let mwa_failures =
    Mw_properties.failures (Mw_properties.check outcome.Runtime.tagged)
  in
  let wait_free =
    List.for_all Op.is_complete (History.ops history)
  in
  { outcome; consistency; atomicity_witness; mwa_failures; wait_free }
