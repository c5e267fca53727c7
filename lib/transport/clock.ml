external now : unit -> float = "mwreg_clock_monotonic"
