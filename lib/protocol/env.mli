(** Configuration of one simulated deployment. *)

open Simulation

type t = {
  engine : Engine.t;
  topology : Topology.t;
  tolerance : int;          (** t — crash faults to survive. *)
  latency : Latency.t;
}

val make :
  ?seed:int ->
  ?latency:Latency.t ->
  s:int ->
  t:int ->
  w:int ->
  r:int ->
  unit ->
  t
(** Fresh engine + topology.  Defaults: seed 42, latency
    [uniform ~lo:1.0 ~hi:10.0].  Validates [0 ≤ t < s]. *)

val quorum_size : t -> int
(** [S − t], the reply count every round-trip waits for. *)

val s : t -> int
val t_ : t -> int
val w : t -> int
val r : t -> int
