(** WkR1 with k = 3 — a three-round write with the admissible fast read.
    Executable form of the §5.1 remark that the fast-read threshold
    [R < S/t − 2] does not depend on how many rounds a write takes; see
    the implementation header. *)

val name : string
val design_point : Quorums.Bounds.design_point

val algo : Client_core.algo
(** The protocol's client algorithm, backend-agnostic: the simulator's
    {!Cluster_base} and the live TCP transport both instantiate exactly
    this. *)
