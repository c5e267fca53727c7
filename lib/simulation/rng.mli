(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator flows through a value of
    type {!t}, seeded explicitly, so that a simulation run is a pure
    function of its seed: same seed, same schedule, same history.  The
    generator is splittable, which lets independent components (network
    latency, workload think times, fault injection) draw from decorrelated
    streams derived from one master seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed.  Two generators
    built from the same seed produce identical streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    decorrelated from [t]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive.  Requires [lo <= hi]. *)

val float : t -> bound:float -> float
(** Uniform in [\[0, bound)]. *)

val float_in_range : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle driven by [t]. *)
