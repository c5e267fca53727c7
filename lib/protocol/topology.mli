(** Node layout of the paper's system model (Fig. 1).

    Three disjoint process sets — servers Σsv, writers Σwr, readers Σrd —
    mapped onto the integer node ids the {!Simulation.Network} uses:
    servers occupy [0 … S−1], writers [S … S+W−1], readers
    [S+W … S+W+R−1].  Clients talk to servers; servers never talk to each
    other (enforced via {!forbidden}). *)

type t = { servers : int; writers : int; readers : int }

val make : servers:int -> writers:int -> readers:int -> t
(** Validates [servers ≥ 2], [writers ≥ 1], [readers ≥ 1]. *)

val node_count : t -> int

val server_node : t -> int -> int
val writer_node : t -> int -> int
val reader_node : t -> int -> int

val server_nodes : t -> int array
(** All server node ids, in index order. *)

val is_server : t -> int -> bool
val is_client : t -> int -> bool

val proc_of_node : t -> int -> Histories.Op.proc option
(** The client process living at a node, [None] for servers. *)

val forbidden : t -> src:int -> dst:int -> bool
(** True for server→server and client→client messages, which the model
    does not allow. *)
