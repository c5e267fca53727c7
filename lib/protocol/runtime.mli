(** Binding a register protocol to the simulator and a workload.

    The runtime creates a cluster, drives each client through a
    sequential *plan* of operations (well-formedness by construction:
    one client never overlaps its own operations), records the history,
    runs the engine to quiescence, then releases any adversarially held
    messages and lets the execution settle — the paper's convention that
    skipped messages arrive "after the rest of the execution has
    finished". *)

open Histories
open Simulation

type step =
  | Write          (** Write a fresh, globally unique value. *)
  | Read
  | Think of float (** Local delay before the next step. *)

type plan = { proc : Op.proc; start_at : float; steps : step list }
(** One client's script.  [proc] selects the client: [Writer i] drives
    the i-th writer, [Reader j] the j-th reader. *)

type outcome = {
  history : History.t;
  tagged : Checker.Mw_properties.tagged list;
      (** The same operations annotated with their (ts,wid) tags, for the
          MWA checker; ops without tags are included with [tag = None]. *)
  net_stats : Network.stats;
  sim_time : float;
  events : int;
}

val run :
  register:Register_intf.t ->
  env:Env.t ->
  plans:plan list ->
  ?adversary:(Control.t -> Engine.t -> unit) ->
  unit ->
  outcome
(** Execute the plans.  [adversary] runs once after cluster creation and
    may install route filters or schedule crashes.  Virtual time is
    capped at 1e7 as a safety net against blocked clients; operations
    still in flight then appear pending in the history. *)

val write_plan : writer:int -> ?start_at:float -> ?think:float -> int -> plan
(** [write_plan ~writer n] — n writes separated by [think] (default 0). *)

val read_plan : reader:int -> ?start_at:float -> ?think:float -> int -> plan
