(** The one simulator cluster, shared by every register protocol.

    Every protocol runs on the same physical pieces: one private network
    (with the model's server↔server and client↔client bans installed),
    [S] replicas attached as servers, and one {!Protocol.Round_trip}
    endpoint per writer and per reader.  A protocol differs only in its
    {!Client_core.algo}, which this cluster instantiates once per client
    over the simulator endpoints — the live TCP transport instantiates
    the same value over real sockets. *)

type t

val create :
  ?name:string -> ?max_writers:int -> Protocol.Env.t -> Client_core.algo -> t
(** Build the network, the servers, the client endpoints (writers, then
    readers) and finally the clients themselves.  Raises
    [Invalid_argument], prefixed with [name], when the environment has
    more writers than [max_writers] (default: no bound); it always has
    at least one ({!Protocol.Topology.make}). *)

val control : t -> Protocol.Control.t
(** Adversarial handle over the cluster's network. *)

val write :
  t -> writer:int -> value:int -> k:(Checker.Mw_properties.tag option -> unit) -> unit

val read :
  t -> reader:int -> k:(int -> Checker.Mw_properties.tag option -> unit) -> unit

val register :
  name:string ->
  design_point:Quorums.Bounds.design_point ->
  ?max_writers:int ->
  Client_core.algo ->
  Protocol.Register_intf.t
(** The cluster packed as the runtime's first-class protocol handle:
    [create] builds a {!t} over [algo] with the given writer bound. *)
