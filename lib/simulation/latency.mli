(** Message-delay models.

    A latency model maps a (source, destination) pair and a random stream
    to a one-way message delay.  The paper's model is asynchronous —
    correctness never depends on delays — so latency models only shape the
    *performance* experiments (Fig. 2 lattice, the motivation benchmark)
    and diversify schedules for the checker-driven experiments. *)

type t

val sample : t -> Rng.t -> src:int -> dst:int -> float
(** Draw a delay for a message from [src] to [dst]. *)

val constant : float -> t
(** Every message takes exactly the given delay. *)

val uniform : lo:float -> hi:float -> t
(** Delays uniform in [\[lo, hi)]. *)

val exponential : mean:float -> t
(** Exponential delays (heavy-ish tail) with the given mean. *)

val lognormal_like : median:float -> spread:float -> t
(** A skewed distribution approximating WAN behaviour: [median * spread^g]
    where [g] is a centered uniform sample.  [spread >= 1.0]. *)

val geo : region_of:(int -> int) -> local:float -> cross:float -> jitter:float -> t
(** Geo-replication model: messages within a region take about [local],
    messages across regions about [cross], each perturbed by a uniform
    jitter in [\[0, jitter)].  [region_of] maps a node id to its region. *)

val matrix :
  region_of:(int -> int) ->
  delay:float array array ->
  jitter:float array array ->
  t
(** The full-matrix generalisation of {!geo}: a message from a node in
    region [a] to one in region [b] takes [delay.(a).(b)] seconds plus a
    uniform jitter in [\[0, jitter.(a).(b))].  Rows are source regions,
    columns destinations, so asymmetric (up ≠ down) links are
    expressible.  Both matrices must be square and of equal size.
    [Transport.Geo] profiles compile to this model and to equivalent
    live-transport fault rules, so "who is far from whom" means the
    same thing on the simulator and on sockets.  Raises
    [Invalid_argument] on shape mismatch. *)
