(** The process's one event loop: every in-process {!Server} and every
    {!Mux} runs on it.

    One thread waits in one {!Netio.Poller} for every listen socket,
    server connection and mux link of the process, so a round trip
    between a mux and a server of the same process crosses no thread
    hand-off: the loop writes the request, reads it on the server's
    side, writes the reply and routes it, without waking anyone.  The
    thread is the only thread of its own domain, which the first
    {!submit} (the first {!Server.start} or {!Mux.create}) spawns; it
    is never joined and lives as long as the process.  Client threads,
    and whatever else the caller runs, stay on the caller's domain, so
    the loop never waits for their runtime lock.

    Each iteration runs the work submitted since the last one, then
    every {!ticker}'s due work (a mux releases its due frames, scans its
    timeouts and writes each link once), then waits once in its poller,
    until the earliest ticker deadline, which calls the handler that
    {!watch} registered for each ready descriptor.

    The loop's thread is the only one that touches mux, server and
    fault-plan state, so none of it has a lock.  Other threads reach it
    through {!submit} alone, and through {!await} and {!call}, which
    submit and block until the loop hands back an outcome.  Everything
    else here is for code that runs on the loop. *)

val submit : (unit -> unit) -> unit
(** Run [f] on the loop at its next iteration, in submission order, and
    wake the loop for it if it sleeps (one wake-pipe write per sleep,
    whatever the number of submissions).  Any thread; spawns the loop
    on first use.  An exception [f] raises ends the loop. *)

type 'a handoff
(** A reusable hand-off from the loop to one blocked thread, which
    {!await}s the outcome that work on the loop {!give}s it. *)

val handoff : unit -> 'a handoff

val await : who:string -> 'a handoff -> (unit -> unit) -> 'a
(** {!submit} [f] and block until work on the loop — [f] itself or
    later — {!give}s [h] an outcome: return its value or re-raise its
    exception.  One thread awaits a hand-off at a time.
    @raise Invalid_argument naming [who] when called on the loop's own
    thread (from a continuation, say), which would wait for itself. *)

val give : 'a handoff -> ('a, exn * Printexc.raw_backtrace) result -> unit
(** Release the thread awaiting [h] with this outcome.  On the loop,
    once per {!await}. *)

val call : who:string -> (unit -> 'a) -> 'a
(** Run [f] on the loop and return its result (or re-raise): {!await}
    on a fresh hand-off.
    @raise Invalid_argument naming [who] on the loop's own thread. *)

val on_loop : unit -> bool
(** Whether the calling thread is the loop's. *)

(** {1 On the loop's thread only} *)

val watch :
  Unix.file_descr ->
  want_write:bool ->
  (readable:bool -> writable:bool -> unit) ->
  unit
(** Register [fd] with read interest (and write interest if
    [want_write]) and the handler its readiness is dispatched to.
    Errors and hang-ups are reported as [readable]. *)

val set : Unix.file_descr -> read:bool -> write:bool -> unit
(** Replace a watched [fd]'s interest set ({!Netio.Poller.set}). *)

val unwatch : Unix.file_descr -> unit
(** Forget [fd] and its handler.  Call before closing it: a descriptor
    number closed and reused within one dispatch round may still be
    told of the old socket's readiness, so a handler must tolerate a
    spurious event (a read or a flush that finds nothing to do). *)

type ticker = {
  step : float -> unit;
      (** Do the work due at the given {!Clock.now} time. *)
  deadline : unit -> float;
      (** The earliest time there will be work due ([infinity] for
          none). *)
}

val add_ticker : ticker -> unit
(** Run [step] at the start of every iteration and sleep no later than
    [deadline]. *)

val remove_ticker : ticker -> unit
(** Forget a ticker (by physical equality). *)
