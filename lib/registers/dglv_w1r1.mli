(** See the module implementation header for the protocol description. *)

val name : string
val design_point : Quorums.Bounds.design_point

val algo : Client_core.algo
(** The protocol's client algorithm, backend-agnostic: the simulator's
    {!Cluster_base} and the live TCP transport both instantiate exactly
    this. *)
