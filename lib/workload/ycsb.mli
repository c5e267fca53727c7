(** YCSB-shaped workload generation for the KV keyspace: which key an
    operation touches and whether it reads or writes.

    Key choice is either uniform over the keyspace or the YCSB zipfian
    generator (Gray et al.'s inverse method with the [eta] correction),
    where rank 0 is the hottest key — contention-dependent fast paths
    only differentiate under such skew, which is the point of carrying
    this generator at all.  Operation kinds follow the classic A–C
    mixes.  Every draw flows through the caller's {!Simulation.Rng.t}:
    same seed, same key and operation sequence. *)

type dist = Uniform | Zipfian of float  (** skew parameter θ ∈ (0, 1) *)

type mix =
  | A  (** update-heavy: 50% reads / 50% writes *)
  | B  (** read-heavy: 95% reads / 5% writes *)
  | C  (** read-only: 100% reads *)

val default_theta : float
(** The standard YCSB zipfian constant, 0.99. *)

val mix_name : mix -> string
(** ["A"], ["B"], ["C"]. *)

val mix_of_string : string -> mix option

val dist_name : dist -> string
(** ["uniform"] or ["zipfian"]. *)

type t
(** An immutable key chooser (precomputed zipfian constants); safe to
    share across client threads, each drawing from its own generator. *)

val create : dist:dist -> keys:int -> t
(** [create ~dist ~keys] prepares a chooser over key ranks
    [0 .. keys-1].  O(keys) precompute for zipfian. *)


val next_key : t -> Simulation.Rng.t -> int
(** The next operation's key rank.  Under [Zipfian _], rank 0 is
    hottest. *)

val next_op : mix -> Simulation.Rng.t -> [ `Read | `Write ]

val key_name : int -> string
(** YCSB-style record name for a rank, e.g. [user00000042] — fixed
    width, so names sort and hash independently of rank skew. *)
