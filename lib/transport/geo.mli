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
    pairs. *)

type budget = { rt_timeout : float; max_rt_retries : int }
(** A profiled run's round-trip budget, as {!Mux.create} takes it. *)

val budget : profile -> budget
(** The plain budget: a timeout of [max 1.0 (8 × max_rtt)], far enough
    above the worst round trip that a slow-but-healthy link never reads
    as loss, and the mux's default 3 retries. *)

val outage_budget : profile -> budget
(** The budget under a region {!outage}: a short timeout of [max 0.3
    (4 × max_rtt)] with 10 retries, so a cut-off client retries its way
    across the window instead of stalling on one round trip; [timeout ×
    retries] outlasts the window plus one worst round trip. *)

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
(** Human-readable delay/jitter matrix for [mwreg live --geo list]. *)
