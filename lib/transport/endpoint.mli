(** The live client endpoint: a {!Mux} client handle seen as the
    backend-agnostic capability the {!Registers.Client_core} algorithms
    consume — the simulator's {!Protocol.Round_trip} contract over real
    sockets.  Counters and lifecycle stay on {!Mux} itself. *)

exception Unavailable of string
(** Raised when no quorum answered within the retry budget — the same
    exception as {!Mux.Unavailable}. *)

val endpoint : Mux.handle -> key:string -> Registers.Client_core.endpoint
(** The capability pinned to register [key]: every round trip of the
    returned endpoint is one {!Mux.exec} carrying [key], so a key-blind
    protocol algorithm runs against that register unchanged. *)
