(** Timestamps [(ts, wid)] — the value identifiers of §5.2.

    A value written by writer [wᵢ] is denoted [(ts, wᵢ)] where [ts] is a
    version number; values are totally ordered lexicographically, writer
    ids breaking ties between concurrent writes ("when we have equal ts
    values … the lexicographical order").  The type is an alias of the
    checker's {!Checker.Mw_properties.tag} so protocol output feeds the
    MWA property checker without conversion. *)

type t = Checker.Mw_properties.tag = { ts : int; wid : int }

val initial : t
(** [(0, ⊥)], with ⊥ encoded as writer id −1. *)

val compare : t -> t -> int
(** Lexicographic: [ts] first, then [wid]. *)

val equal : t -> t -> bool
val max : t -> t -> t

val next : t -> wid:int -> t
(** [next m ~wid] = [(m.ts + 1, wid)] — the timestamp a writer picks
    after observing maximum [m]. *)

val pp : Format.formatter -> t -> unit
