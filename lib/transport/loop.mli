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

    Each iteration runs every {!ticker}'s due work first (a mux releases
    its due frames, scans its timeouts and writes each link once), then
    waits once, until the earliest ticker deadline, and dispatches each
    ready descriptor to the handler that {!watch} registered for it.

    Other threads reach the loop in two ways only: {!submit} (and its
    waiting form {!call}) queue work for the next iteration, and
    {!wake_before} wakes it when they staged work due before the
    deadline it sleeps to.  Everything else here is for code that runs
    on the loop: a handler, a ticker, or a submitted closure. *)

val submit : (unit -> unit) -> unit
(** Run [f] on the loop at its next iteration, in submission order, and
    wake the loop for it.  Any thread; spawns the loop on first use.  An
    exception [f] raises ends the loop. *)

val call : who:string -> (unit -> unit) -> unit
(** {!submit} [f] and return once the loop has run it, re-raising what
    it raised.  This is how {!Server.stop} and {!Mux.shutdown} wait for
    the loop's acknowledgement.
    @raise Invalid_argument naming [who] when called on the loop's own
    thread (from a continuation, say), which would wait for itself. *)

val on_loop : unit -> bool
(** Whether the calling thread is the loop's. *)

val wake_before : float -> unit
(** A thread other than the loop's staged work due at [due] (a
    {!Clock.now} time): write the loop's wake pipe if the loop sleeps
    past [due], and do nothing if it is awake or wakes earlier.  The
    staging must happen before the call, and the ticker's
    [deadline] must see it: the loop peeks at every deadline again after
    it publishes the time it sleeps to, so no deadline is overslept. *)

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
          none).  Other threads may stage work, so it must read what
          they stage under the lock they stage it with. *)
}

val add_ticker : ticker -> unit
(** Run [step] at the start of every iteration and sleep no later than
    [deadline]. *)

val remove_ticker : ticker -> unit
(** Forget a ticker (by physical equality). *)
