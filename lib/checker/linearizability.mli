(** Brute-force linearizability oracle (Wing–Gong search).

    A generic checker that searches directly for the sequential
    permutation π of Definition 2.1 against the sequential register
    specification.  Exponential in the worst case, so it is restricted to
    small histories (≤ {!max_ops} operations) and used as the *oracle*
    that cross-validates the zone check ({!Online}, and {!Atomicity}
    over it) in property tests, and to produce concrete linearization
    orders for examples. *)

open Histories

val max_ops : int
(** Upper bound on history size (bitset representation). *)

val linearize : History.t -> Op.t list option
(** [linearize h] is a witnessing sequential order of [h]'s operations if
    one exists.  Pending reads are ignored; pending writes may be
    linearized or dropped (a crashed writer's write may or may not have
    taken effect).  Raises [Invalid_argument] if [h] has more than
    {!max_ops} operations or is ill-formed. *)

val check : History.t -> bool
(** [check h] = [linearize h <> None]. *)
