(** Imperative binary min-heap.

    The event queue of the discrete-event engine.  Elements are ordered by
    a comparison function fixed at creation; ties must be broken by the
    caller (the engine uses a monotone sequence number) so that extraction
    order is deterministic. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap ordered by [cmp] (smallest element extracted first). *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Removes and returns the minimum, or [None] when empty. *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit
