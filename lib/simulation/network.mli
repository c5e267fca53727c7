(** Asynchronous message-passing network with adversarial control.

    Implements the communication substrate of the paper's system model
    (Fig. 1): bidirectional reliable channels between clients and servers,
    no server-to-server communication, crash faults.  "Reliable" means no
    spontaneous loss; messages to/from crashed nodes are discarded, and an
    adversary may *delay* messages arbitrarily — including the paper's
    "skip" construction, where the messages between one operation and one
    server are held until the rest of the execution has finished.

    The network is polymorphic in the message payload so each protocol
    instantiates it with its own message type. *)

type 'msg envelope = {
  src : int;
  dst : int;
  sent_at : float;
  payload : 'msg;
}

(** What the adversarial filter decides for a message at send time. *)
type action =
  | Deliver            (** Deliver after a latency-model delay. *)
  | Delay of float     (** Deliver after exactly this delay. *)
  | Hold               (** Park the message until [release_held]. *)
  | Drop               (** Silently discard (models a crashed endpoint). *)

type 'msg t

val create : Engine.t -> latency:Latency.t -> 'msg t
(** A network whose default behaviour is to deliver every message after a
    delay drawn from [latency] using a stream split from the engine RNG. *)

val register : 'msg t -> node:int -> ('msg envelope -> unit) -> unit
(** Install the delivery handler for [node].  Re-registering replaces the
    handler.  Messages to unregistered nodes raise at delivery time. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Asynchronous send.  Consults [forbid], crash state, then the filter. *)

val set_filter : 'msg t -> ('msg envelope -> action) option -> unit
(** Install or remove the adversarial filter (applied at send time). *)

val forbid : 'msg t -> (src:int -> dst:int -> bool) -> unit
(** [forbid t p] makes any send with [p ~src ~dst = true] raise
    [Invalid_argument].  Used to enforce "servers never talk to servers". *)

val crash : 'msg t -> int -> unit
(** Crash a node: its in-flight and future messages (in both directions)
    are discarded and its handler is never invoked again. *)

val is_crashed : 'msg t -> int -> bool
val crashed_count : 'msg t -> int

val release_held : 'msg t -> unit
(** Deliver (immediately, in original send order) every held message. *)

val held_count : 'msg t -> int

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  held_ever : int;
}

val stats : 'msg t -> stats
