(** Named WAN/geo scenario profiles, compiled for both backends.

    A profile describes "who is far from whom" once — as per-region-pair
    one-way delay and jitter matrices over a deterministic node → region
    placement — and compiles into

    - a {!Simulation.Latency.matrix} model for the simulated backend, and
    - a {!Faults.t} rule set ({!Faults.Latency} kind) for the live mux
      and sockets transports,

    so a protocol measured under [wan-3region] sees the same geography on
    every plane.  Node ids follow the shared Topology numbering (servers
    [0..s-1], then clients); placement is [node mod region_count]. *)

type profile

val name : profile -> string
val description : profile -> string

val region_count : profile -> int
val region_name : profile -> int -> string

val region_of : profile -> int -> int
(** [region_of p node] is the region a node lives in: [node mod
    region_count p].  Identical for the latency model and the fault
    rules.  Raises [Invalid_argument] on negative ids. *)

val base : profile -> src:int -> dst:int -> float
(** One-way base delay in seconds for a message from node [src] to node
    [dst] (before jitter). *)

val jitter_bound : profile -> src:int -> dst:int -> float
(** Uniform jitter bound added on top of {!base} for that direction. *)

val max_rtt : profile -> float
(** Worst-case round trip (both legs, including jitter) over all region
    pairs — use it to size [rt_timeout]. *)

val lan : profile
(** One region, ~0.6ms RTT: the control. *)

val wan_3region : profile
(** Three symmetric regions, ~1ms intra-region RTT, ~80ms cross-region. *)

val mixed_1ms_80ms : profile
(** Two regions: fast at home, one 80ms-RTT ocean between them. *)

val asym_updown : profile
(** Asymmetric edge/core links: 30ms up, 10ms down. *)

val profiles : profile list
(** All named profiles, [lan] first. *)

val find : string -> profile option
(** Case-insensitive lookup by name. *)

val names : unit -> string list

val latency_model : profile -> Simulation.Latency.t
(** Compile the profile for the simulated backend. *)

val rules : profile -> s:int -> clients:int list -> Faults.rule list
(** Compile the profile for the live transports: one
    {!Faults.Latency} rule per populated (client region, server region)
    pair and direction, carrying that pair's base/jitter.  [s] is the
    server count; [clients] the client node ids (Topology numbering). *)

val plan : ?seed:int -> ?extra:Faults.rule list -> profile -> s:int -> clients:int list -> Faults.t
(** [rules] wrapped into a fault plan; [extra] rules (e.g. a
    {!Faults.partition} for a region outage) are appended after the geo
    rules.  [seed] drives the deterministic jitter draws. *)

type outage = {
  region : int;  (** the cut region: the profile's last *)
  cut : int list;  (** its nodes, servers first, then clients *)
  from_ : float;
  until : float;  (** the cut's window, seconds into the run *)
  rule : Faults.rule;  (** the {!Faults.partition} to pass as [extra] *)
}

val outage : profile -> s:int -> clients:int list -> outage
(** The region outage: the profile's last region partitioned away from
    every other node from 0.05s to 0.30s into the run.  Raises
    [Invalid_argument] on a one-region profile, which has nothing to cut
    it from. *)

val describe : profile -> string
(** Human-readable delay/jitter matrix for [mwreg geo --list]. *)
