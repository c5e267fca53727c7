(** Discrete-event simulation engine.

    The engine owns a virtual clock (the "discrete global clock" of the
    paper's system model, §2.1 — processes cannot read it, but the
    simulator and the checkers can) and a priority queue of pending
    actions.  Running the engine repeatedly extracts the earliest action,
    advances the clock to its timestamp, and executes it.  Actions may
    schedule further actions.

    Determinism: events at equal times are executed in scheduling order
    (a monotone sequence number breaks ties), and all randomness comes
    from the engine's seeded {!Rng.t}, so a run is a pure function of the
    seed and the initial schedule. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh engine at time 0.  Default seed is 42. *)

val now : t -> float
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's master random stream.  Components should [Rng.split] it
    rather than share it, to keep their draws decorrelated. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] when the clock reaches [time].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] is [schedule_at t ~time:(now t +. delay) f].
    Negative delays are clipped to zero. *)

val run : ?until:float -> t -> unit
(** Run until quiescence, or until the clock would pass [until], whichever
    comes first. *)

val stop : t -> unit
(** Request that [run] return after the current event. *)

val pending : t -> int
(** Number of scheduled-but-not-executed events. *)

val processed : t -> int
(** Total number of events executed so far. *)

val is_quiescent : t -> bool
