(** Socket I/O for the process's event loop ({!Loop}) — the
    transport's single sanctioned raw-I/O module (mwlint's RAW-IO rule
    points every [Unix.read]/[write]/[accept]/[select] outside this file
    back here).

    One EINTR policy for everything: OCaml installs signal handlers
    without [SA_RESTART], so any syscall can be interrupted mid-flight;
    an interrupted call is not a dead link.  Blocking variants retry
    EINTR until they complete.  Non-blocking variants ([*_nb]) also
    retry EINTR, but return [None] on EAGAIN/EWOULDBLOCK so the loop
    can park the descriptor with its {!Poller} instead of blocking a
    thread.  Every other error still propagates: real link failures
    surface where callers expect them. *)

(** {1 Syscall counts}

    Every [read(2)], [write(2)] and readiness wait the calls below make
    bumps one process-wide [Atomic] counter first — always on, no
    switch: the increment is the whole cost.  Retries count again (an
    [EINTR] restart is a second syscall), and so do attempts that come
    back [EAGAIN].  Accepts and interest changes are not counted.  The
    counters never reset; diff two snapshots to attribute a span of
    work. *)

type counts = {
  writes : int;  (** {!write_all} [write(2)] calls (blocking sockets). *)
  writes_nb : int;
      (** {!write_nb} [write(2)] calls (server and mux sockets). *)
  reads : int;
      (** [read(2)] calls from {!read}, {!read_nb} and {!drain_wake}. *)
  waits : int;  (** {!Poller.wait} calls: one epoll/poll wait each. *)
  notifies : int;  (** {!notify} wake-byte writes. *)
}

val counts : unit -> counts
(** A snapshot of the counters (each read atomically; the record as a
    whole is not a consistent cut across threads). *)

(** {1 Blocking I/O} *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all fd buf pos len] writes exactly [len] bytes of [buf]
    starting at [pos], restarting after partial writes and [EINTR].
    Raises the underlying [Unix_error] on any other failure. *)

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read], restarted on [EINTR]. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (once), so a peer that closes its
    socket mid-write surfaces as EPIPE on that write instead of killing
    the process.  The event loop calls it before its first socket. *)

(** {1 Non-blocking variants} *)

val set_nonblock : Unix.file_descr -> unit
(** Put [fd] in non-blocking mode (required before the [*_nb] calls
    below can ever return [None]). *)

val read_nb : Unix.file_descr -> bytes -> int -> int -> int option
(** [Some n] bytes read ([Some 0] = EOF), or [None] when the socket has
    nothing buffered (EAGAIN/EWOULDBLOCK).  EINTR is retried. *)

val write_nb : Unix.file_descr -> bytes -> int -> int -> int option
(** [Some n] bytes accepted by the kernel (possibly short), or [None]
    when the send buffer is full — the caller should register write
    interest and come back when the poller says so (backpressure).
    EINTR is retried. *)

val accept_nb : Unix.file_descr -> Unix.file_descr option
(** Accept one pending connection, or [None] when the backlog is empty.
    EINTR and ECONNABORTED (peer died in the backlog) are retried. *)

(** {1 Wakeup pipes}

    A loop blocked in its poller is woken by writing a byte to a
    pipe whose read end it watches.  Both calls are non-blocking and
    swallow failure: a full pipe already guarantees a wakeup, and a
    closed one means there is nobody left to wake. *)

val notify : Unix.file_descr -> unit
(** Write one wakeup byte to the pipe's write end. *)

val drain_wake : Unix.file_descr -> unit
(** Discard every buffered wakeup byte from the pipe's read end. *)

(** {1 Readiness} *)

val fd_int : Unix.file_descr -> int
(** The descriptor's integer (Unix-only build): the key the poller and
    the loop use for their tables. *)

module Poller : sig
  (** A persistent interest set for one waiting thread (the process's
      event loop): epoll(7) where the
      platform has it, poll(2) over the registered set elsewhere.
      Level-triggered either way — an event repeats until its cause is
      drained, so a loop that processes only part of a socket's data
      is re-told on the next {!wait}. *)

  type t

  val create : unit -> t

  val add : t -> Unix.file_descr -> want_write:bool -> unit
  (** Register [fd] with read interest on. *)

  val set : t -> Unix.file_descr -> read:bool -> write:bool -> unit
  (** Replace [fd]'s interest set — the backpressure levers.  Write
      interest is on while a connection's out-queue could not be
      flushed and off once it drains; read interest is off while the
      out-queue sits above its ceiling, so a peer that asks faster than
      it reads is made to wait instead of growing the queue.  Errors
      and hang-ups are still reported with both off.  No-op for
      unregistered descriptors. *)

  val remove : t -> Unix.file_descr -> unit
  (** Forget [fd].  Call before closing it. *)

  val wait :
    t ->
    timeout:float ->
    (Unix.file_descr -> readable:bool -> writable:bool -> unit) ->
    int
  (** Block up to [timeout] seconds, invoke the callback once per ready
      descriptor, return the ready count (0 on timeout or EINTR).  The
      timeout's resolution is nanoseconds on epoll (epoll_pwait2(2))
      and whole milliseconds, rounded up, on the poll(2) fallback and
      on kernels without epoll_pwait2.  On Linux the first epoll wait
      on a thread sets that thread's timer slack to 1 ns (from the
      default 50 µs), so a wake-up lands at its deadline: the thread
      that waits here is the process's event loop, which sleeps to the
      deadlines of every mux's staged requests and held replies alike
      (both legs of a link).  Where the kernel refuses, the
      default slack stays.
      Errors (EPOLLERR/HUP, POLLNVAL) are reported as [readable]: the
      owner's read path observes the failure and drops the connection.
      The callback may [add]/[set]/[remove] freely, including for the
      descriptor being dispatched. *)

  val close : t -> unit
  (** Release the poller's own resources (registered fds are not
      touched). *)
end
