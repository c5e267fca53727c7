(** The adaptive ("semifast-style") register: fast reads on margin-safe
    certificates, an ABD repair round otherwise — atomic at any reader
    count.  See the implementation header for the rationale and the §6
    context. *)

val name : string
val design_point : Quorums.Bounds.design_point

val algo : Client_core.algo
(** The protocol's client algorithm, backend-agnostic: the simulator's
    {!Cluster_base} and the live TCP transport both instantiate exactly
    this. *)

val new_reader :
  ?note:([ `Fast | `Slow ] -> unit) ->
  Client_core.ctx ->
  reader:int ->
  Client_core.reader_fn
(** [algo.new_reader] with a hook told which path each read took. *)

val safe_degrees : s:int -> t:int -> int list
(** The admissibility degrees with certificate margin: all [a ≥ 1] with
    [S − a·t > t].  Independent of the reader count — that is what frees
    the protocol from the [R < S/t − 2] threshold. *)
