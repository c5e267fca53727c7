(** Consistent-hash placement of register keys onto shard groups.

    Each group plants [vnodes] points on a 64-bit hash ring; a key
    belongs to the group owning the first point clockwise of the key's
    hash.  Group [g]'s points depend only on [g], so resizing from [n]
    to [n ± 1] groups remaps only the ~K/N keys whose successor point
    changes hands — every other key stays put (the property the qcheck
    suite pins).  Hashing is FNV-1a, deterministic across runs and
    processes. *)

type t

val make : ?vnodes:int -> groups:int -> unit -> t
(** [vnodes] defaults to 128 — enough that per-group load imbalance
    stays within a few tens of percent of the mean. *)

val groups : t -> int
val vnodes : t -> int

val group_of : t -> string -> int
(** The shard group owning [key], in [0 .. groups-1]. *)

val spread : t -> string list -> int array
(** Per-group key counts for a concrete key population (balance
    reporting and tests). *)
