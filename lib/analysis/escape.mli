(** Escape/capture analysis: marks mutable cells as thread-shared when
    their accesses span at least two thread origins.

    An origin is one spawn site ([<spawn:LINE>] closure frame, with
    everything it transitively calls) or the main thread (rooted at
    every summary no spawn frame reaches).  A cell is shared when its
    accesses — outside the creating summary of a ref/array/table
    binding — can execute under two distinct origins: a race needs two
    threads.  Threads spawned at the same syntactic site count as one
    origin (the benign per-thread-slot pattern), a documented
    precision tradeoff. *)

val lookup : Rules.state -> f_mod:string -> string -> string option
(** Resolve a recorded callee to a summary key, trying the caller's
    enclosing module prefixes for nested-module targets
    ([Outq.consume] inside [Server] finds [Server.Outq.consume]). *)

val access_counts : Rules.state -> string -> Rules.access -> bool
(** Does this access (in the summary with the given key) count as a
    shared-access site — i.e. is it outside the cell's creator? *)

val shared_cells : Rules.state -> (string, unit) Hashtbl.t
(** Set of thread-shared cell identifiers. *)
