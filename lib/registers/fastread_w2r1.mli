(** The paper's W2R1 register (Algorithm 1 & 2) — two-round writes,
    one-round admissibility-certified reads.  See the implementation
    header for the algorithm description. *)

val name : string
val design_point : Quorums.Bounds.design_point

val algo : Client_core.algo
(** The protocol's client algorithm, backend-agnostic: the simulator's
    {!Cluster_base} and the live TCP transport both instantiate exactly
    this. *)

val new_reader :
  ?probe:(Client_core.read_probe -> unit) ->
  Client_core.ctx ->
  reader:int ->
  Client_core.reader_fn
(** [algo.new_reader] with an observation hook invoked on every fast
    read — used by the Appendix-A lemma tests to watch degrees, maxTS,
    and fallbacks. *)
