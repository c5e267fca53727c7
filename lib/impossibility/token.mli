(** Events arriving at a server, in the full-info model (§4.1).

    The impossibility proof studies executions with two one-round writes
    — [W₁ = write(1)] and [W₂ = write(2)] — and two two-round reads [R₁],
    [R₂].  What a server knows is exactly the sequence of these tokens it
    has received; what a reader learns from a server is the prefix of
    that sequence preceding its own round's arrival. *)

type t =
  | W of int  (** [W d]: the write of digit [d] (1 or 2) arrives. *)
  | R of { reader : int; round : int }
      (** Round [round ∈ {1,2}] of reader [reader ∈ {1,2}] arrives. *)

val equal : t -> t -> bool

val digit : t -> int option
(** [digit (W d)] = [Some d]. *)

val pp : Format.formatter -> t -> unit

val w1 : t
val w2 : t
val r : reader:int -> round:int -> t
