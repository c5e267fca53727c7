(** Named adversaries: schedule shapers and fault plans.

    An adversary bundles route rules (deciding per-message fates from
    endpoints and time) and crash plans.  {!apply} turns it into the
    callback {!Protocol.Runtime.run} accepts.  All adversaries here
    respect the model — they delay or crash within the [t] budget, they
    never forge or reorder within a channel — so any atomicity violation
    they expose is the protocol's fault, not the adversary's. *)

open Protocol
open Simulation

type t

val apply : t -> Control.t -> Engine.t -> unit
(** What [Runtime.run ~adversary] wants. *)

val none : t

val compose : t list -> t
(** Route rules concatenate (earlier adversaries take precedence);
    crash plans union. *)

val crash_at : (float * int) list -> t
(** [(time, server_index)] pairs.  The caller is responsible for staying
    within the cluster's [t] budget. *)

val crash_random : seed:int -> t:int -> at:float -> s:int -> t
(** Crash a pseudo-randomly chosen set of [t] distinct servers at [at]. *)

val hold_route : ?from_time:float -> src:int -> dst:int -> unit -> t
(** Hold every message on one directed link from [from_time] on (the
    paper's "skip": delivery happens when the runtime releases held
    messages after the execution proper). *)

val delay_route : delay:float -> src:int -> dst:int -> t

val random_skips :
  seed:int -> topology:Topology.t -> t_budget:int -> window:float -> t
(** In each time window of the given length, every client independently
    "skips" a pseudo-random set of at most [t_budget] servers: its
    messages to them are held.  Keeps every round-trip completable while
    exploring the schedule space the proofs range over. *)

val partition :
  groups:(int -> int) -> from_time:float -> until:float -> t
(** Between [from_time] and [until], messages crossing group boundaries
    are delayed to [until] (the partition heals by itself).  [groups]
    maps a node id to its side.  Within-group traffic is untouched. *)

val certificate_starvation : topology:Topology.t -> t:int -> unit -> t
(** The fast-read killer (Fig. 9 / §5.1, adapted to Algorithm 1 & 2):

    - writer 0's second-round updates reach only the first [t] servers
      (the {i certificate block}), so its value v₁ lives on [t] servers
      while the write stays in progress;
    - writer 1 stays in its first round forever (its query still lands on
      the block, enrolling w₁ in v₁'s [updated] set);
    - readers 0 … R−2 read normally, each visit enrolling them in the
      block's [updated] set for v₁, until the set reaches R+1 clients —
      at which point the admissible predicate certifies v₁ from the
      block alone iff [R ≥ S/t − 2];
    - the last reader reads while skipping the block and finds no trace
      of v₁.

    In the unsafe regime some reader returns v₁ and the last reader then
    returns the older value — a new/old inversion (MWA4).  In the safe
    regime [R < S/t − 2] the block alone can never certify v₁ and every
    read returns the old value consistently.  Pair with
    {!threshold_plans} and a [Latency.constant 1.0] environment (the
    filter windows assume unit delays). *)

val threshold_plans : topology:Topology.t -> Runtime.plan list
(** The operation schedule matching {!certificate_starvation}: one write
    per writer, one read per reader, timed so the filter windows land
    between rounds. *)
