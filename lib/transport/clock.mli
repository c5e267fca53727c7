(** The one time source for transport deadlines and live histories.

    Round-trip deadlines, reconnect backoff gates, the event loop's sleeps and
    fault-plan windows all measure {e durations}, so they must not move
    when the wall clock steps (NTP slew, manual adjustment, suspend):
    a backwards step would stall every timeout, a forwards step would
    fire them all at once.  {!now} reads [CLOCK_MONOTONIC] where the
    platform has it and falls back to [Unix.gettimeofday] elsewhere.

    Values are only meaningful relative to other {!now} readings in the
    same process.  Live histories (the [Kv.Kv_session] driver) are
    stamped with it too, relative to the run's start: their timestamps order
    operations across threads and never need to match an outside
    clock. *)

val monotonic : bool
(** Whether {!now} is backed by a monotonic source on this platform. *)

val now : unit -> float
(** Seconds from an arbitrary origin, non-decreasing when {!monotonic}. *)
