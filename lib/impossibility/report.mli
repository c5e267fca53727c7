(** Human-readable rendering of a Theorem 1 run.

    Replays {!W1r2_theorem.run} and narrates it: the α-chain returns and
    the critical server, the pinned R₂ return, the chosen chain, each
    zigzag step's link verdicts, and the final violating execution with
    its per-server arrival diagram — a textual Fig. 3.  Used by the
    `impossibility_tour` example and the `mwreg impossibility --explain`
    flag. *)

val explain : s:int -> Strategy.t -> string
(** The full narrative.  Ends with the finding (violation witness or, in
    principle, the unresolved escape hatch). *)
