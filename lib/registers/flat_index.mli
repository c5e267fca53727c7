(** The slots of {!Keyspace}'s one open-addressing index: 32-bit
    words, four bytes each, in a [Bytes].

    A word is {!empty}, a resident replica's slot number, or a demoted
    record's arena offset, told apart by its low bit: slot [h] is
    [2h + 1] and offset [o] is [2(o + 1)], so each has 31 bits and [0]
    is free for {!empty}.  Probing, growth and what the numbers point
    at are the keyspace's. *)

type t

val create : int -> t
(** [create n]: [n] slots, all {!empty}. *)

val slots : t -> int

val get : t -> int -> int
(** The word in slot [i]. *)

val set : t -> int -> int -> unit

val empty : int

val resident : int -> int
(** The word naming resident slot [h]. *)

val cold : int -> int
(** The word naming arena offset [o].  Raises [Failure] when [o] does
    not fit in 31 bits, rather than wrapping onto another record. *)

val is_resident : int -> bool
(** Whether a non-{!empty} word names a resident slot. *)

val slot : int -> int
(** The slot number a {!resident} word names. *)

val offset : int -> int
(** The arena offset a {!cold} word names. *)
