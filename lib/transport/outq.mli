(** A connection's outbound byte queue, for server connections and mux
    links alike: frames are appended at the back, non-blocking
    writes consume from the front.  Everything queued between two
    flushes leaves in one [write(2)]; a write the kernel cuts short
    leaves the remainder queued for the next flush.  Not thread-safe:
    its owner, the process's event loop ({!Loop}), is the only
    one to touch it. *)

type t

val create : int -> t
(** An empty queue with the given initial capacity in bytes. *)

val length : t -> int
(** Bytes queued and not yet written. *)

val is_empty : t -> bool

val clear : t -> unit
(** Drop everything queued (the link it fed has died). *)

val add_buffer : t -> Buffer.t -> unit

val add_subbytes : t -> bytes -> int -> int -> unit
(** [add_subbytes q b pos n] appends [n] bytes of [b] from [pos]. *)

val flush : t -> Unix.file_descr -> bool
(** Write with {!Netio.write_nb} until the queue drains ([true]) or the
    kernel's send buffer is full ([false]: register write interest and
    flush again once the descriptor is writable).  A dead link raises
    its [Unix.Unix_error]. *)
