(** First-class handles on every register protocol in the repository:
    one row per protocol (its client algorithm and writer bound), from
    which its simulator handle is built by {!Cluster_base.register}. *)

val abd_mwmr : Protocol.Register_intf.t
val abd_swmr : Protocol.Register_intf.t
val fastread_w2r1 : Protocol.Register_intf.t
val dglv_w1r1 : Protocol.Register_intf.t
val naive_w1r2 : Protocol.Register_intf.t
val naive_w1r1 : Protocol.Register_intf.t

val adaptive : Protocol.Register_intf.t
(** The adaptive "semifast-style" register ({!Adaptive_read}): fast reads
    when a margin-safe certificate exists, one repair round otherwise.
    Atomic at any reader count — the constructive answer to what lies
    beyond the [R < S/t − 2] threshold.  Not part of {!multi_writer}
    (Table 1 covers strictly-fast designs only). *)

val slow_write_w3r1 : Protocol.Register_intf.t
(** WkR1 with k = 3 ({!Slow_write_w3r1}): three-round writes, fast reads.
    Demonstrates §5.1's remark that the fast-read bound does not depend
    on the write's round count. *)

val all : Protocol.Register_intf.t list
(** Every protocol, slow-to-fast. *)

val multi_writer : Protocol.Register_intf.t list
(** Protocols whose clusters accept [W ≥ 2] — one per design point of
    Table 1 ({!abd_mwmr}, {!naive_w1r2}, {!fastread_w2r1},
    {!naive_w1r1}). *)

val name : Protocol.Register_intf.t -> string
val design_point : Protocol.Register_intf.t -> Quorums.Bounds.design_point

val client_algo : Protocol.Register_intf.t -> Client_core.algo
(** The protocol's backend-agnostic client algorithm — the body that both
    the simulator cluster ({!Cluster_base}) and the live TCP transport
    execute.  The handle is matched by identity: raises
    [Invalid_argument] for any handle not in {!all}, even one packed
    under a registered protocol's name. *)

val max_writers : Protocol.Register_intf.t -> int option
(** [Some 1] for the single-writer protocols ({!abd_swmr}, {!dglv_w1r1}),
    [None] when any writer count is accepted.  Raises [Invalid_argument]
    like {!client_algo}. *)

val clamp_writers : Protocol.Register_intf.t -> int -> int
(** [clamp_writers r w]: [w] capped at the protocol's {!max_writers}. *)

val find : string -> Protocol.Register_intf.t option
(** Lookup by {!name}: case-insensitive substring match, after expanding
    the design-point aliases ([w2r2], [w2r1], [w1r2], [w1r1], [ls97],
    [huang], [swmr], [dglv], …).  This is the one name table — the CLI
    and benches resolve protocols exclusively through it. *)
