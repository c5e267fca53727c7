(** The possibility/impossibility predicates of the paper's Table 1.

    Each function answers: in a system with [s] servers of which up to [t]
    may crash, [w] writers and [r] readers, does an atomic register
    implementation exist at this design point?  These are the
    *theoretical* verdicts; the `table1` benchmark compares them against
    the checker's empirical verdicts on simulated runs. *)

type design_point = W2R2 | W1R2 | W2R1 | W1R1

val design_point_to_string : design_point -> string
val all_design_points : design_point list

val write_rounds : design_point -> int
val read_rounds : design_point -> int

val w2r2_possible : s:int -> t:int -> bool
(** [LS97]: possible iff [t < S/2] (majority of servers correct). *)

val w1r2_possible : s:int -> t:int -> w:int -> r:int -> bool
(** This paper, Theorem 1: impossible whenever [W ≥ 2], [R ≥ 2] and
    [t ≥ 1].  With a single writer, ABD'95 gives a W1R2 implementation
    (provided [t < S/2]); with [t = 0] one round trivially suffices. *)

val fast_read_threshold : s:int -> t:int -> int
(** The largest reader count for which fast reads are possible:
    readers must satisfy [R < S/t − 2], i.e. the threshold is
    [⌈S/t⌉ − 2] readers are too many at exactly [R ≥ S/t − 2].
    Returns the max admissible R (can be ≤ 0, meaning no fast-read
    implementation for any number of readers).  Requires [t ≥ 1]. *)

val w2r1_possible : s:int -> t:int -> r:int -> bool
(** This paper, §5: possible iff [R < S/t − 2] (and [t < S/2]).
    With [t = 0] fast reads are trivially possible. *)

val w1r1_possible : s:int -> t:int -> w:int -> r:int -> bool
(** [DGLV10]: impossible for [W ≥ 2, R ≥ 2, t ≥ 1]; for a single writer
    possible iff [R < S/t − 2]. *)

val possible : design_point -> s:int -> t:int -> w:int -> r:int -> bool
(** Dispatch over the four design points. *)

val latency_rank : design_point -> int
(** Total round-trips (write + read); lower means faster.  Orders the
    Hasse diagram of Fig. 2. *)
